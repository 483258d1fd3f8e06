package assign

import (
	"math"
	"testing"

	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// TestNearestBatchMatchesPerPoint pins NearestBatch to the per-point plain
// scan it replaces: the same center and a bit-equal squared distance, with
// and without the pruned index, on both sides of preferSweep's k floor.
// The evaluation count is the path's own: the pruned scan's per query,
// the sweep's per query where preferSweep holds, and n·k elsewhere; it
// never exceeds n·k without the matrix.
func TestNearestBatchMatchesPerPoint(t *testing.T) {
	r := rng.New(5)
	swept := 0
	for trial := 0; trial < 16; trial++ {
		dim := 1 + r.Intn(4)
		centers := metric.NewDataset(1+r.Intn(40), dim)
		queries := metric.NewDataset(1+r.Intn(200), dim)
		for _, ds := range []*metric.Dataset{centers, queries} {
			for i := range ds.Data {
				ds.Data[i] = r.Float64Range(-10, 10)
			}
		}
		if preferSweep(centers.N, dim) {
			swept++
		}
		pr := metric.NewPruned(centers)
		sw := metric.NewSweep(centers)
		for _, p := range []*metric.Pruned{nil, pr} {
			outC := make([]int, queries.N)
			outSq := make([]float64, queries.N)
			evals := NearestBatch(centers, p, queries, outC, outSq)
			var wantEvals int64
			for i := 0; i < queries.N; i++ {
				c, sq := metric.NearestInRange(centers, 0, centers.N, queries.At(i))
				if outC[i] != c || math.Float64bits(outSq[i]) != math.Float64bits(sq) {
					t.Fatalf("trial %d pruned=%v point %d: batch (%d, %v), per-point (%d, %v)",
						trial, p != nil, i, outC[i], outSq[i], c, sq)
				}
				switch {
				case p != nil:
					_, _, e := p.Nearest(queries.At(i))
					wantEvals += e
				case preferSweep(centers.N, dim):
					_, _, e := sw.Nearest(queries.At(i))
					wantEvals += e
				default:
					wantEvals += int64(centers.N)
				}
			}
			if evals != wantEvals {
				t.Fatalf("trial %d pruned=%v: batch charged %d evals, per-point %d", trial, p != nil, evals, wantEvals)
			}
			if p == nil && evals > int64(queries.N)*int64(centers.N) {
				t.Fatalf("trial %d: batch charged %d evals, above n·k = %d", trial, evals, queries.N*centers.N)
			}
		}
	}
	if swept == 0 {
		t.Fatal("no trial took the sweep path")
	}
}
