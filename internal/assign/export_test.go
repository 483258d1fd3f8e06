package assign

// Exported for the external benchmarks in package assign_test, which use
// MRG's centers and so cannot live in package assign (mrg imports it).

type EvalMode = evalMode

const (
	ModeIndex = modeIndex
	ModeGrid  = modeGrid
)

var EvaluateMode = evaluate
