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
// adaptive choice callers make with metric.PreferPruned). With pr nil,
// where preferSweep holds, the call gathers a metric.Sweep over the
// centers and answers each query by its sorted-projection search;
// elsewhere each query scans all k centers. Every path returns what a
// caller looping metric.NearestInRange per point gets, bit for bit: the
// same center under the same lowest-position tie-break and the same
// squared distance. Only the evaluation count differs.
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
	if preferSweep(centers.N, centers.Dim) {
		return nearestSweep(centers, queries, outCenter, outSqDist)
	}
	return nearestPlain(centers, queries, outCenter, outSqDist)
}

// nearestSweep is NearestBatch's sorted-projection path: it gathers a
// metric.Sweep over the centers and answers each query from it.
func nearestSweep(centers, queries *metric.Dataset, outCenter []int, outSqDist []float64) int64 {
	sw := metric.NewSweep(centers)
	var evals int64
	for i := 0; i < queries.N; i++ {
		c, sq, e := sw.Nearest(queries.At(i))
		evals += e
		outCenter[i] = c
		outSqDist[i] = sq
	}
	return evals
}

// nearestPlain is NearestBatch's full scan: every query against all k
// centers.
func nearestPlain(centers, queries *metric.Dataset, outCenter []int, outSqDist []float64) int64 {
	k := centers.N
	for i := 0; i < queries.N; i++ {
		c, sq := metric.NearestInRange(centers, 0, k, queries.At(i))
		outCenter[i] = c
		outSqDist[i] = sq
	}
	return int64(queries.N) * int64(k)
}

// preferSweep reports whether NearestBatch, given no pruned index, answers
// a batch against k centers of dimension dim by a sorted-projection sweep.
// Both paths return the same bits; this only picks the faster one.
//
// The rule is fitted on BenchmarkNearestBatchShapes (one 256-point batch,
// GAU and UNIF, build included; medians of 6 counts on a 2-vCPU host,
// where the same code read up to ±30% apart between runs). Sweep time
// over plain-scan time:
//
//   - dim ≤ 2, k ≥ 25: 0.21–0.69 in all 24 rows of two runs; 0.41–0.49
//     at dim 2, k = 50, the shape perfbench serves.
//   - dim ≤ 2, k = 16: 0.45–0.92 in seven of eight rows, one at 1.15.
//   - dim ≤ 2, k ≤ 10: 0.53–1.33, a loss in 8 of 16 rows: the per-call
//     build (sorting and gathering the centers, 0.4–0.7 µs at k ≤ 10
//     against 3.7 µs at k = 50), the binary search and the branchy walk
//     cost about what skipping a handful of four-flop distances saves.
//   - dim 3: 1.24–3.0 at every k. One sorted coordinate of three bounds
//     a distance less tightly, so the walk visits most centers, each
//     through SqDist's generic body.
func preferSweep(k, dim int) bool {
	return dim <= 2 && k >= 16
}
