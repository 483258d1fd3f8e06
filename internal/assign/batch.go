// Batch assignment: a one-to-many kernel pass over a contiguous query slab.
// Where Evaluate owns its own parallelism and allocates a full Evaluation,
// NearestBatch is the bare kernel pass — the caller provides the query
// Dataset and the output arrays and gets exactly the per-point results a
// per-point nearest-center query computes, bit for bit.

package assign

import "kcenter/internal/metric"

// NearestBatch assigns every point of queries to its nearest center,
// writing the center position into outCenter[i] and the squared distance
// into outSqDist[i], and returns the number of distance evaluations
// performed. centers holds the gathered center coordinates; pr, when
// non-nil, must be the metric.Pruned built over exactly those centers and
// routes each query through the triangle-inequality-pruned scan (the
// adaptive choice callers make with metric.PreferPruned). Results are
// bit-identical with or without pr, and bit-identical to a caller looping
// metric.NearestInRange / Pruned.Nearest per point — NearestBatch IS that
// loop, over a contiguous query slab instead of per-request row slices.
// outCenter and outSqDist must have length at least queries.N.
func NearestBatch(centers *metric.Dataset, pr *metric.Pruned, queries *metric.Dataset, outCenter []int, outSqDist []float64) int64 {
	n := queries.N
	if pr != nil {
		var evals int64
		for i := 0; i < n; i++ {
			c, sq, e := pr.Nearest(queries.At(i))
			evals += e
			outCenter[i] = c
			outSqDist[i] = sq
		}
		return evals
	}
	k := centers.N
	for i := 0; i < n; i++ {
		c, sq := metric.NearestInRange(centers, 0, k, queries.At(i))
		outCenter[i] = c
		outSqDist[i] = sq
	}
	return int64(n) * int64(k)
}
