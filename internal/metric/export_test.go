package metric

// Exported for BenchmarkNearestBatchShapes, which forces each Index kernel
// beside NewIndex's pick. It lives in package metric_test because its
// farthest-first centers come from internal/core, which imports metric.

type IndexKind = indexKind

const (
	KindPlain  = kindPlain
	KindSweep  = kindSweep
	KindPruned = kindPruned
)

var NewIndexOfKind = newIndex
