package metric

import "math"

// Index is a center set prepared for nearest-center queries, answered by
// one of three kernels: the plain scan (NearestInRange), the sorted-
// projection sweep (sweep.go) or the triangle-inequality-pruned scan
// (pruned.go). Whichever NewIndex picked, a query answers what
// NearestInRange(centers, 0, k, q) answers, bit for bit: the same position
// under the lowest-position tie-break and the same squared distance, (0,
// +Inf) when none is below +Inf. Only the number of distances evaluated
// differs. An Index is immutable and safe for concurrent readers.
type Index struct {
	kind    indexKind
	centers *Dataset
	sw      *Sweep  // the sorted layout, for kindSweep
	pr      *pruned // the center-center matrix, for kindPruned
}

// indexKind names the kernel an Index answers with.
type indexKind uint8

const (
	kindPlain  indexKind = iota // NearestInRange over all k centers
	kindSweep                   // the sorted-projection search
	kindPruned                  // the triangle-inequality-pruned scan
)

// NewIndex prepares centers for nearest-center queries. It is the one
// place that chooses the kernel, from k = centers.N and dim = centers.Dim:
//
//   - the sorted-projection sweep at dim ≤ 2 and k ≥ 16, when every center
//     coordinate is finite (the sort needs totally ordered keys);
//   - the pruned scan at dim ≥ 3 and k > max(64/dim, 8);
//   - the plain scan everywhere else.
//
// All three return the same bits; the rule only picks the faster, as
// fitted on a 2-vCPU host:
//
//   - The sweep, on BenchmarkNearestBatchShapes (a 256-point batch against
//     farthest-first centers, GAU and UNIF, build included, medians of 6
//     counts that spread up to ±30%): at dim ≤ 2 it took 0.21–0.69 of the
//     plain time in all 24 rows at k ≥ 25 (0.41–0.49 at dim 2, k = 50,
//     the shape perfbench serves) and 0.45–0.92 in seven of eight rows at
//     k = 16. At k ≤ 10 it lost in 8 of 16 rows (0.53–1.33): the build
//     (0.4–0.7 µs; 3.7 µs at k = 50), the search and the branchy walk cost
//     what skipping a few four-flop distances saves. At dim 3 it lost at
//     every k (1.24–3.0): one sorted coordinate of three prunes little.
//   - The pruned scan, on BenchmarkKernelPrunedNearest (k ∈ {8, 16, 25,
//     50, 100} × dim ∈ {2, 3, 4, 8}, clustered queries, in
//     BENCH_kernels.json): at dim 2 it never won decisively (ties, or 4–6%
//     slower at k ∈ {25, 50}), as a distance costs the four flops of the
//     check that would skip it. The saving per skip grows with dim, so
//     the break-even k shrinks like 1/dim: dims 3 and 4 won at k ≥ 50 (up
//     to 26%) and lost below 25, dim 8 won from k = 16 (30% at k = 100).
//     k > max(64/dim, 8) puts every measured win on the pruned side.
func NewIndex(centers *Dataset) *Index {
	k, dim := centers.N, centers.Dim
	switch {
	case dim <= 2 && k >= 16 && finite(centers.Data):
		return newIndex(centers, kindSweep)
	case dim >= 3 && k > max(64/dim, 8):
		return newIndex(centers, kindPruned)
	}
	return newIndex(centers, kindPlain)
}

// newIndex prepares centers for the given kernel.
func newIndex(centers *Dataset, kind indexKind) *Index {
	x := &Index{kind: kind, centers: centers}
	switch kind {
	case kindSweep:
		x.sw = NewSweep(centers)
	case kindPruned:
		x.pr = newPruned(centers)
	}
	return x
}

// finite reports whether no value of data is NaN or ±Inf.
func finite(data []float64) bool {
	for _, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// BuildEvals returns the distances evaluated to prepare the index: k² for
// the pruned scan's center-center matrix, none for the other kernels.
func (x *Index) BuildEvals() int64 {
	if x.kind != kindPruned {
		return 0
	}
	return int64(x.centers.N) * int64(x.centers.N)
}

// Nearest returns the position of the center nearest to q, its squared
// distance and the number of distances evaluated.
func (x *Index) Nearest(q []float64) (int, float64, int64) {
	switch x.kind {
	case kindSweep:
		return x.sw.nearest(q)
	case kindPruned:
		return x.pr.nearest(q)
	}
	c, sq := NearestInRange(x.centers, 0, x.centers.N, q)
	return c, sq, int64(x.centers.N)
}

// NearestBatch answers Nearest for every row of queries, writing the
// center position into outCenter[i] and the squared distance into
// outSqDist[i], and returns the number of distances evaluated. Both
// outputs must have length at least queries.N. Each kernel has its own
// loop, so a batch pays for the choice once, not once per query.
func (x *Index) NearestBatch(queries *Dataset, outCenter []int, outSqDist []float64) int64 {
	n := queries.N
	var evals int64
	switch x.kind {
	case kindSweep:
		for i := 0; i < n; i++ {
			c, sq, e := x.sw.nearest(queries.At(i))
			outCenter[i], outSqDist[i] = c, sq
			evals += e
		}
	case kindPruned:
		for i := 0; i < n; i++ {
			c, sq, e := x.pr.nearest(queries.At(i))
			outCenter[i], outSqDist[i] = c, sq
			evals += e
		}
	default:
		k := x.centers.N
		for i := 0; i < n; i++ {
			outCenter[i], outSqDist[i] = NearestInRange(x.centers, 0, k, queries.At(i))
		}
		evals = int64(n) * int64(k)
	}
	return evals
}
