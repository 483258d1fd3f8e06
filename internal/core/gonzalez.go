// Package core implements the shared-memory k-center primitives at the
// heart of the reproduction: Gonzalez's greedy farthest-first
// 2-approximation (GON in the paper), covering-radius evaluation, an exact
// solver for tiny instances (the test oracle behind every
// approximation-ratio property test).
//
// GON (Gonzalez 1985) picks an arbitrary first center, then repeatedly marks
// the point farthest from the chosen centers as the next center, k times.
// The triangle inequality makes the result a 2-approximation; the running
// time is O(k·n) distance evaluations with a very small constant (§5.1),
// which is why it is both the paper's sequential baseline and the reducer
// sub-procedure inside both parallel algorithms.
//
// The traversal charges those k·n evaluations (Result.DistEvals) whatever
// it computes. At large k on low-dimensional input it computes far fewer:
// the blocked layout (blocks.go) sorts the points once into spatially
// compact blocks with bounding boxes and skips every block a new center
// provably cannot improve. The skip is exact, so the centers, radius,
// MinDist and Assignment are bit-identical to a plain scan.
//
// From parallelMinN points, Gonzalez and GonzalezAssign build and traverse
// that layout on GOMAXPROCS workers, one goroutine each per phase, with the
// same bits at every worker count. GonzalezSubset, the reducer of MRG and
// EIM, runs on one: their reducers already run one per core.
package core

import (
	"fmt"
	"math"
	"runtime"

	"kcenter/internal/metric"
)

// Result describes a k-center solution over a dataset.
type Result struct {
	// Centers holds dataset indices of the chosen centers, in selection
	// order (for GON, farthest-first order).
	Centers []int
	// Radius is the covering radius: max over points of the distance to the
	// nearest center.
	Radius float64
	// MinDist[i] is the distance from point i to its nearest center.
	// Algorithms that do not materialize it leave it nil.
	MinDist []float64
	// Assignment[i] is the position in Centers of point i's nearest center,
	// carried through the traversal's relaxation passes (GonzalezAssign)
	// instead of recomputed by a post-hoc evaluation scan. Algorithms that
	// do not carry it leave it nil.
	Assignment []int
	// DistEvals counts the distance evaluations performed, the deterministic
	// cost unit used by the simulated MapReduce cost model.
	DistEvals int64
}

// Options configures Gonzalez.
type Options struct {
	// First is the index of the first (arbitrary) center; it must lie in
	// [0, n). The paper notes the approximation guarantee is independent
	// of this choice, but the realized solution is not.
	First int
}

// Gonzalez runs the farthest-first traversal and returns k centers (fewer
// when the dataset has fewer than k points; every point becomes a center and
// the radius is zero). It panics on k <= 0, an empty dataset or a First
// outside [0, n), which are programming errors in this repository's callers.
func Gonzalez(ds *metric.Dataset, k int, opt Options) *Result {
	return gonzalez(ds, nil, k, opt, true, false, workersFor(ds.N))
}

// GonzalezAssign is Gonzalez with assignment carry: Result.Assignment maps
// every point to the position of its nearest center, maintained by the
// traversal's own relaxation passes (metric.RelaxFarthestAssign) rather
// than a second O(n·k) evaluation scan — the centers, radius, MinDist and
// evaluation count are bit-identical to Gonzalez, and Assignment is
// bit-identical to assign.Evaluate over the final center set (the strict-<
// relaxation keeps the earliest center on ties, matching Evaluate's
// lowest-position tie-break; pinned by TestGonzalezAssignMatchesEvaluate).
func GonzalezAssign(ds *metric.Dataset, k int, opt Options) *Result {
	return gonzalez(ds, nil, k, opt, true, true, workersFor(ds.N))
}

// parallelMinN is the smallest input Gonzalez and GonzalezAssign split
// across GOMAXPROCS workers; below it the goroutine starts cost about what
// the split saves. Fitted on BenchmarkGonzalezShapes's input (GAU,
// k′ = 25, k ∈ {20, 50, 100}, medians of 3, 2-vCPU host): two workers took
// 0.88–1.01 of one worker's time at n = 2¹⁶ and 0.78–0.83 at 2¹⁷.
const parallelMinN = 1 << 17

// workersFor returns the number of workers a top-level traversal over n
// points runs on: GOMAXPROCS from parallelMinN points up, one below.
// GonzalezSubset always runs on one: it is the reducer of MRG and EIM,
// whose reducers already run concurrently, one per core.
func workersFor(n int) int {
	if n < parallelMinN {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// gonzalez is the one farthest-first traversal behind every exported
// variant, over the points of ds named by idx (all of ds when idx is nil);
// centers are returned as positions in idx. Each round relaxes the input
// against the newest center in one of two ways, with bit-identical
// results:
//
//   - blocked (blocks.go), when preferBlocks says the layout pays: only
//     the blocks the new center can improve are relaxed, the layout's build
//     and rounds split across workers goroutines (bit-identical at every
//     count);
//   - otherwise one kernel call over the whole input, on one core.
//
// wantMinDist gates the per-point distances, which reducer-side callers
// never consume, and wantAssign the assignment carry.
func gonzalez(ds *metric.Dataset, idx []int, k int, opt Options, wantMinDist, wantAssign bool, workers int) *Result {
	if k <= 0 {
		panic(fmt.Sprintf("core: Gonzalez requires k >= 1, got %d", k))
	}
	n := ds.N
	if idx != nil {
		n = len(idx)
	}
	if n == 0 {
		panic("core: Gonzalez on empty dataset")
	}
	if k > n {
		k = n
	}
	first := opt.First
	if first < 0 || first >= n {
		panic(fmt.Sprintf("core: first center %d out of range [0,%d)", first, n))
	}

	var blk *blocks
	if preferBlocks(n, k, ds.Dim) {
		blk = newBlocks(ds, idx, wantAssign, workers)
	}
	if blk == nil && idx != nil {
		// The plain passes run on a contiguous gathered copy, so the
		// kernels scan flat memory instead of chasing idx.
		ds, idx = ds.Subset(idx), nil
	}

	res := &Result{Centers: make([]int, 0, k)}
	// minSq[i] tracks the squared distance from point i to the nearest
	// chosen center. Squared distances are monotone in true distances, so
	// the argmax (next center) and the final radius (after one Sqrt) are
	// exact. The relaxation itself is the fused one-to-many kernel
	// metric.RelaxFarthest, which scans the flat backing array with a
	// dimension-specialized body and bit-identical tie-breaking.
	var minSq []float64
	// The assignment carry threads per-point nearest-center positions
	// through the same relaxation passes: the first pass relaxes every
	// point from +Inf, so every entry is written before it is ever read.
	var assigned []int
	var scratch []float64
	if blk == nil {
		minSq = make([]float64, n)
		for i := range minSq {
			minSq[i] = math.Inf(1)
		}
		if wantAssign {
			assigned = make([]int, n)
			scratch = make([]float64, n)
		}
	}
	center := first
	for len(res.Centers) < k {
		res.Centers = append(res.Centers, center)
		q := ds.At(center)
		if idx != nil {
			q = ds.At(idx[center])
		}
		c := len(res.Centers) - 1
		var next int
		var far float64
		switch {
		case blk != nil:
			next, far = blk.relax(q, c)
		case wantAssign:
			next, far = metric.RelaxFarthestAssign(ds, 0, n, q, c, minSq, assigned, scratch)
		default:
			next, far = metric.RelaxFarthest(ds, 0, n, q, minSq)
		}
		res.DistEvals += int64(n)
		if len(res.Centers) == k {
			res.Radius = math.Sqrt(far)
			break
		}
		if far == 0 {
			// Every remaining point coincides with a center; the solution is
			// already perfect and further centers would be duplicates.
			res.Radius = 0
			break
		}
		center = next
	}
	if blk != nil {
		res.MinDist, res.Assignment = blk.rowOrder(wantMinDist)
		return res
	}
	if wantMinDist {
		for i, sq := range minSq {
			minSq[i] = math.Sqrt(sq)
		}
		res.MinDist = minSq
	}
	res.Assignment = assigned
	return res
}

// GonzalezSubset runs the farthest-first traversal restricted to the points
// named by idx (indices into ds) and returns centers as indices into ds.
// It is the reducer-side primitive of MRG: a reducer receives a partition of
// the point set and runs GON on just that partition.
//
// The partition is gathered into a contiguous copy first — one O(n·dim)
// copy, in blocked order when the blocked layout engages and in idx order
// otherwise — so the relaxation passes run on the flat one-to-many kernels
// instead of chasing idx indirections point by point. Options.First is a
// position in idx. Like Gonzalez, it panics on k <= 0 or an empty subset.
func GonzalezSubset(ds *metric.Dataset, idx []int, k int, opt Options) *Result {
	// Subset results never materialize per-point distances (they would be
	// indexed by position, not dataset index, and no reducer-side caller
	// wants them), so the traversal skips that O(n) pass entirely.
	res := gonzalez(ds, idx, k, opt, false, false, 1)
	for i, pos := range res.Centers {
		res.Centers[i] = idx[pos]
	}
	return res
}

// CoveringRadius returns the k-center objective value of the given centers
// over the whole dataset along with the distance-evaluation count. Centers
// are dataset indices.
func CoveringRadius(ds *metric.Dataset, centers []int) (float64, int64) {
	if len(centers) == 0 {
		panic("core: CoveringRadius with no centers")
	}
	// Gather the centers once so the per-point scan is a contiguous
	// one-to-many kernel call instead of k index chases.
	cpts := ds.Subset(centers)
	var worst float64
	for i := 0; i < ds.N; i++ {
		if _, best := metric.NearestInRange(cpts, 0, cpts.N, ds.At(i)); best > worst {
			worst = best
		}
	}
	return math.Sqrt(worst), int64(ds.N) * int64(len(centers))
}
