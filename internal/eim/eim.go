// Package eim implements the paper's generalization of Ene, Im & Moseley's
// iterative-sampling MapReduce algorithm for k-center (KDD 2011), called EIM
// in the paper (Algorithms 2 and 3).
//
// Each record of R is ⟨x, d(x,S)⟩: a point index and its distance to the
// sample S so far (+Inf while S is empty). Each iteration of the main loop is
// three MapReduce rounds:
//
//  1. Sampling: the mappers partition R; each reducer independently adds
//     each of its points to S with probability 9k·n^ε·log n/|R| and to the
//     pivot-candidate set H with probability 4·n^ε·log n/|R|. The points
//     added this iteration form ΔS.
//  2. Pivot selection: H (with its records' carried distances) and ΔS go to
//     one machine, which runs Select(H, S): order H by distance to S,
//     farthest first, and pick the ⌈φ·log n⌉-th point as the pivot v. The
//     original Ene et al. scheme fixes φ = 8; the paper's new parameter φ
//     trades approximation confidence for speed (φ > 5.15 preserves the
//     10-approximation w.s.p., §6).
//  3. Removal: ΔS is broadcast and the mappers partition R; each reducer
//     updates its records' distances and removes the points that are at
//     least as well represented by S as the pivot is. Survivors keep their
//     updated distance for the next iteration.
//
// Rounds 2 and 3 compute d(x,S) = min(d(x, S before ΔS), d(x,ΔS)), so each
// charges |H|·|ΔS| and |R|·|ΔS| distance evaluations instead of rescanning
// all of S. Records carry the squared distance; the rounds take its square
// root only to compare with and select the pivot.
//
// A reducer does not evaluate all of those distances. ΔS is gathered once
// per iteration into a metric.Sweep, the sorted-projection layout the
// nearest-center index shares (Friedman, Baskett & Shustek, IEEE Trans.
// Computers, 1975): its rows are sorted by the coordinate of largest
// range, and a query starts at its own coordinate's place among them,
// walks outwards both ways, and stops in each direction once the squared
// gap in that coordinate alone reaches the best squared distance so far.
// Sweep.Lower starts from the record's carried value, so in later
// iterations most records stop at once. The removal round asks a yes/no
// question, d(x, S) ≤ d(v, S), so it passes the pivot distance as Lower's
// cut, and a record that leaves stops at its first sample within the
// pivot. The select round needs exact distances and passes no cut. The
// charge stays the paper's brute-force |H|·|ΔS| and |R|·|ΔS|: like the
// goroutine pool, the pruning and the early exit are execution details
// of the reducer, and they move wall time only.
//
// The result is bit-identical to a full rescan of Algorithm 2. With no
// cut, or above it, Sweep.Lower returns min(carried, the brute-force
// minimum) bit for bit (see the metric.Sweep doc); min is exact; and sqrt
// is correctly rounded and monotone, so min(√a, √b) = √min(a, b). Below
// the cut it may return early, with a value v ≥ that minimum and √v ≤
// pivot: then the minimum is within the pivot too, so the rescan removes
// the record as well. A survivor's value is exact, so it carries the same
// distance. Every removal decision, pivot distance and therefore the
// centers are the same; the sampling draws do not depend on the distances
// at all.
//
// The loop runs while |R| > (4/ε)·k·n^ε·log n; afterwards C := S ∪ R is the
// sample and a final MapReduce round runs GON on C to produce the k centers
// (a 5α′-approximation with high probability; 10 with GON's α′ = 2).
//
// Two termination fixes from §4.1 are applied:
//
//   - Removal uses d(x, S) ≤ d(v, S) (not strict <), so points tied with the
//     pivot — including the pivot itself — leave R.
//   - Points sampled into S always leave R (their distance to S is zero, so
//     the ≤ rule removes them), preventing the R ∩ S growth that could stop
//     the original scheme from terminating.
//
// When the initial |R| does not exceed the threshold — k large relative to n
// — the loop body never runs and EIM degenerates to GON on the whole input
// on one machine, the behaviour visible in the paper's Figures 3b and 4b.
package eim

import (
	"fmt"
	"math"
	"sort"

	"kcenter/internal/assign"
	"kcenter/internal/core"
	"kcenter/internal/mapreduce"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// Config parameterizes a run of EIM.
type Config struct {
	// K is the number of centers to return.
	K int
	// Epsilon is the sampling exponent ε ∈ (0, 1). The paper confirms Ene et
	// al.'s choice ε = 0.1 (used when zero).
	Epsilon float64
	// Phi is the pivot-selection parameter φ: Select picks the ⌈φ·log n⌉-th
	// farthest candidate. Zero means the original algorithm's φ = 8. The
	// provable 10-approximation w.s.p. requires φ > 5.15 (§6); smaller
	// values are faster and empirically often as good (§8.3).
	Phi float64
	// Cluster describes the simulated MapReduce cluster; the paper fixes
	// Machines = 50. Capacity, when non-zero, is enforced for the rounds
	// that concentrate data on one machine.
	Cluster mapreduce.Config
	// Seed drives all sampling.
	Seed uint64
	// MaxIterations caps the main loop as a safety net; the loop is
	// O(1/ε) w.h.p. Zero means ⌈20/ε⌉.
	MaxIterations int
}

func (c Config) withDefaults() Config {
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.Phi == 0 {
		c.Phi = 8
	}
	if c.Cluster.Machines <= 0 {
		c.Cluster.Machines = 50
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = int(math.Ceil(20 / c.Epsilon))
	}
	return c
}

// IterationStats records one iteration of the main loop for diagnostics and
// the runtime analysis experiments.
type IterationStats struct {
	RBefore   int     // |R| entering the iteration
	RAfter    int     // |R| after removal
	Sampled   int     // points added to S this iteration
	HSize     int     // |H| this iteration
	PivotDist float64 // d(v, S) for the selected pivot
}

// Result is the outcome of an EIM run.
type Result struct {
	// Centers holds the k final center indices into the input dataset.
	Centers []int
	// Radius is the covering radius over the full dataset.
	Radius float64
	// Iterations counts main-loop iterations (3 MapReduce rounds each).
	Iterations int
	// MapReduceRounds = 3·Iterations + 1 (final GON round).
	MapReduceRounds int
	// SampleSize is |C| = |S ∪ R| passed to the final GON round.
	SampleSize int
	// FellBack reports that the while-condition never held, so EIM ran GON
	// on the entire input (the paper's Figure 3b/4b regime).
	FellBack bool
	// PerIteration records per-iteration diagnostics.
	PerIteration []IterationStats
	// Stats exposes per-round simulated cost.
	Stats *mapreduce.JobStats
	// Evaluation is the full assignment of the dataset to Centers.
	Evaluation *assign.Evaluation
}

// Threshold returns the main-loop threshold (4/ε)·k·n^ε·log n (natural log),
// below which R is small enough to stop sampling.
func Threshold(n, k int, epsilon float64) float64 {
	if n <= 1 {
		return 0
	}
	ne := math.Pow(float64(n), epsilon)
	return (4 / epsilon) * float64(k) * ne * math.Log(float64(n))
}

// SelectPosition returns the 1-indexed rank ⌈φ·log n⌉ used by Select,
// clamped to [1, hSize].
func SelectPosition(n, hSize int, phi float64) int {
	pos := int(math.Ceil(phi * math.Log(float64(n))))
	if pos < 1 {
		pos = 1
	}
	if pos > hSize {
		pos = hSize
	}
	return pos
}

// Run executes EIM over ds.
func Run(ds *metric.Dataset, cfg Config) (*Result, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("eim: k must be >= 1, got %d", cfg.K)
	}
	if ds == nil || ds.N == 0 {
		return nil, fmt.Errorf("eim: empty dataset")
	}
	cfg = cfg.withDefaults()
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		return nil, fmt.Errorf("eim: epsilon must be in (0,1), got %v", cfg.Epsilon)
	}
	if cfg.Phi < 0 {
		return nil, fmt.Errorf("eim: phi must be positive, got %v", cfg.Phi)
	}
	engine, err := mapreduce.NewEngine(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	n := ds.N
	m := engine.Config().Machines
	r := rng.New(cfg.Seed)
	res := &Result{Stats: engine.Stats()}

	// R starts as the whole vertex set, S empty (Algorithm 2, line 1). Each
	// record of R is ⟨x, d(x,S)⟩: dR[pos] carries R[pos]'s squared distance
	// to the sample so far, +Inf while S is empty.
	R := make([]int, n)
	dR := make([]float64, n)
	for i := range R {
		R[i] = i
		dR[i] = math.Inf(1)
	}
	var S []int

	logn := math.Log(float64(n))
	ne := math.Pow(float64(n), cfg.Epsilon)
	threshold := Threshold(n, cfg.K, cfg.Epsilon)

	for float64(len(R)) > threshold && res.Iterations < cfg.MaxIterations {
		iter := res.Iterations
		it := IterationStats{RBefore: len(R)}

		// ---- Round 1: sampling (Algorithm 2, lines 3–4). ----
		pS := math.Min(1, 9*float64(cfg.K)*ne*logn/float64(len(R)))
		pH := math.Min(1, 4*ne*logn/float64(len(R)))
		// Reducer i holds the records at positions [bounds[i], bounds[i+1])
		// of R in both the sampling and the removal round.
		bounds := mapreduce.PartitionBounds(len(R), m)
		parts := len(bounds) - 1
		newS := make([][]int, parts)
		newH := make([][]int, parts)
		tasks := make([]mapreduce.Task, parts)
		for i := range tasks {
			i := i
			reducerRng := r.Split(uint64(iter)<<32 | uint64(i))
			tasks[i] = func(ops *mapreduce.OpCounter) error {
				var si, hi []int
				for pos := bounds[i]; pos < bounds[i+1]; pos++ {
					if reducerRng.Bernoulli(pS) {
						si = append(si, R[pos])
					}
					if reducerRng.Bernoulli(pH) {
						hi = append(hi, pos)
					}
				}
				ops.Add(int64(bounds[i+1] - bounds[i]))
				newS[i] = si
				newH[i] = hi
				return nil
			}
		}
		if _, err := engine.Run(fmt.Sprintf("eim-%d-sample", iter+1), tasks); err != nil {
			return nil, err
		}
		// ΔS holds the points sampled this iteration; H holds positions into
		// R, so a candidate's carried distance comes with it.
		var deltaS, H []int
		for i := 0; i < parts; i++ {
			deltaS = append(deltaS, newS[i]...)
			H = append(H, newH[i]...)
		}
		S = append(S, deltaS...)
		it.Sampled = len(deltaS)
		it.HSize = len(H)

		// Only ΔS is gathered: rounds 2 and 3 lower each record's carried
		// squared distance by its distance to the new points (see the
		// package doc for why this equals a rescan of all of S bit for bit).
		delta := metric.NewSweep(ds.Subset(deltaS))
		sqToS := func(pos int, cut float64) float64 {
			return delta.Lower(ds.At(R[pos]), dR[pos], cut)
		}

		// ---- Round 2: pivot selection on one machine (lines 5–6). ----
		// Capacity is checked against the paper's H ∪ S footprint, so a
		// capacity error is the same as under a full rescan.
		if err := engine.CheckCapacity(len(H) + len(S)); err != nil {
			return nil, fmt.Errorf("eim: select round: %w", err)
		}
		var pivotDist float64
		selectTask := func(ops *mapreduce.OpCounter) error {
			if len(H) == 0 || len(S) == 0 {
				// Degenerate iteration: no candidates or empty sample. The
				// sampled points still leave R below (their distance is 0),
				// so progress is preserved; no pivot-based removal happens.
				return nil
			}
			dH := make([]float64, len(H))
			for i, pos := range H {
				dH[i] = math.Sqrt(sqToS(pos, -1)) // exact: no cut
			}
			ops.Add(int64(len(H)) * int64(len(deltaS)))
			// Order farthest-to-nearest and take the ⌈φ·log n⌉-th (line 3 of
			// Select / Algorithm 3).
			sort.Float64s(dH)
			pos := SelectPosition(n, len(dH), cfg.Phi)
			pivotDist = dH[len(dH)-pos]
			return nil
		}
		if _, err := engine.Run(fmt.Sprintf("eim-%d-select", iter+1), []mapreduce.Task{selectTask}); err != nil {
			return nil, err
		}
		it.PivotDist = pivotDist

		// ---- Round 3: removal (lines 7–9) with the §4.1 fixes. ----
		// d(x,S) <= d(v,S) removes x; with no pivot (pivotDist 0) only the
		// points at distance zero from S, the freshly sampled ones among
		// them, are removed. The pivot distance is Lower's cut (see the
		// package doc); survivors keep their exact updated distance. Each
		// reducer compacts its survivors to the front of its own range of R
		// and dR, in order, and one pass then closes the gaps between the
		// ranges.
		kept := make([]int, parts)
		removalTasks := make([]mapreduce.Task, parts)
		for i := range removalTasks {
			i := i
			removalTasks[i] = func(ops *mapreduce.OpCounter) error {
				lo, hi := bounds[i], bounds[i+1]
				next := lo
				for pos := lo; pos < hi; pos++ {
					if sq := sqToS(pos, pivotDist); math.Sqrt(sq) > pivotDist {
						R[next], dR[next] = R[pos], sq
						next++
					}
				}
				ops.Add(int64(hi-lo) * int64(len(deltaS)))
				kept[i] = next - lo
				return nil
			}
		}
		if _, err := engine.Run(fmt.Sprintf("eim-%d-remove", iter+1), removalTasks); err != nil {
			return nil, err
		}
		size := 0
		for i, survivors := range kept {
			copy(R[size:], R[bounds[i]:bounds[i]+survivors])
			copy(dR[size:], dR[bounds[i]:bounds[i]+survivors])
			size += survivors
		}
		stalled := size >= len(R)
		R, dR = R[:size], dR[:size]
		it.RAfter = len(R)
		res.PerIteration = append(res.PerIteration, it)
		res.Iterations++
		if stalled {
			// With the §4.1 fixes this requires an iteration that sampled
			// nothing and found no pivot — astronomically unlikely above the
			// threshold, but guard anyway: stop sampling and emit C = S ∪ R.
			break
		}
	}

	// Output C := S ∪ R (line 10). S and R are disjoint after the fixes, but
	// deduplicate defensively: GON on duplicates is correct yet wasteful.
	C := dedupe(append(append([]int(nil), S...), R...))
	res.SampleSize = len(C)
	res.FellBack = res.Iterations == 0

	// ---- Final round: GON on the sample, one machine. ----
	if err := engine.CheckCapacity(len(C)); err != nil {
		return nil, fmt.Errorf("eim: final round: %w", err)
	}
	var centers []int
	finalTask := func(ops *mapreduce.OpCounter) error {
		g := core.GonzalezSubset(ds, C, cfg.K, core.Options{First: 0})
		ops.Add(g.DistEvals)
		centers = g.Centers
		return nil
	}
	if _, err := engine.Run("eim-final", []mapreduce.Task{finalTask}); err != nil {
		return nil, err
	}

	res.Centers = centers
	res.MapReduceRounds = 3*res.Iterations + 1
	res.Evaluation = assign.Evaluate(ds, centers, 0)
	res.Radius = res.Evaluation.Radius
	return res, nil
}

// dedupe removes duplicate indices preserving first-seen order.
func dedupe(idx []int) []int {
	seen := make(map[int]struct{}, len(idx))
	out := idx[:0]
	for _, v := range idx {
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
