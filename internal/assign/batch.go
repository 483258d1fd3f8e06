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
// performed. centers holds the gathered center coordinates; idx, when
// non-nil, must be the metric.Index built over exactly those centers, so
// a caller that queries one center set many times builds it once. With
// idx nil the call builds one. The results are what a caller looping
// metric.NearestInRange per point gets, bit for bit; only the evaluation
// count depends on the kernel the index chose. outCenter and outSqDist
// must have length at least queries.N.
func NearestBatch(centers *metric.Dataset, idx *metric.Index, queries *metric.Dataset, outCenter []int, outSqDist []float64) int64 {
	if idx == nil {
		idx = metric.NewIndex(centers)
	}
	return idx.NearestBatch(queries, outCenter, outSqDist)
}
