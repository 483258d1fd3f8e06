package assign

import (
	"testing"

	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// TestNearestBatchMatchesPerPoint pins NearestBatch to the per-point loop it
// replaces: same center, bit-equal squared distance and the same evaluation
// count, with and without the pruned index.
func TestNearestBatchMatchesPerPoint(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 10; trial++ {
		dim := 1 + r.Intn(4)
		centers := metric.NewDataset(1+r.Intn(40), dim)
		queries := metric.NewDataset(1+r.Intn(200), dim)
		for _, ds := range []*metric.Dataset{centers, queries} {
			for i := range ds.Data {
				ds.Data[i] = r.Float64Range(-10, 10)
			}
		}
		pr := metric.NewPruned(centers)
		for _, p := range []*metric.Pruned{nil, pr} {
			outC := make([]int, queries.N)
			outSq := make([]float64, queries.N)
			evals := NearestBatch(centers, p, queries, outC, outSq)
			var wantEvals int64
			for i := 0; i < queries.N; i++ {
				var c int
				var sq float64
				if p == nil {
					c, sq = metric.NearestInRange(centers, 0, centers.N, queries.At(i))
					wantEvals += int64(centers.N)
				} else {
					var e int64
					c, sq, e = p.Nearest(queries.At(i))
					wantEvals += e
				}
				if outC[i] != c || outSq[i] != sq {
					t.Fatalf("trial %d pruned=%v point %d: batch (%d, %v), per-point (%d, %v)",
						trial, p != nil, i, outC[i], outSq[i], c, sq)
				}
			}
			if evals != wantEvals {
				t.Fatalf("trial %d pruned=%v: batch charged %d evals, per-point %d", trial, p != nil, evals, wantEvals)
			}
		}
	}
}
