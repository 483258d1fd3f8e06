package assign

import (
	"math"
	"testing"

	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// TestNearestBatchMatchesPerPoint pins NearestBatch to the per-point plain
// scan it replaces: the same center and a bit-equal squared distance,
// with a nil index and with one prepared over the centers, at dims 1–4 and
// k on both sides of NewIndex's crossovers. The evaluation count is the
// index's own, per query, and never exceeds n·k.
func TestNearestBatchMatchesPerPoint(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 16; trial++ {
		dim := 1 + r.Intn(4)
		centers := metric.NewDataset(1+r.Intn(40), dim)
		queries := metric.NewDataset(1+r.Intn(200), dim)
		for _, ds := range []*metric.Dataset{centers, queries} {
			for i := range ds.Data {
				ds.Data[i] = r.Float64Range(-10, 10)
			}
		}
		idx := metric.NewIndex(centers)
		for _, x := range []*metric.Index{nil, idx} {
			outC := make([]int, queries.N)
			outSq := make([]float64, queries.N)
			evals := NearestBatch(centers, x, queries, outC, outSq)
			var wantEvals int64
			for i := 0; i < queries.N; i++ {
				c, sq := metric.NearestInRange(centers, 0, centers.N, queries.At(i))
				if outC[i] != c || math.Float64bits(outSq[i]) != math.Float64bits(sq) {
					t.Fatalf("trial %d prepared=%v point %d: batch (%d, %v), per-point (%d, %v)",
						trial, x != nil, i, outC[i], outSq[i], c, sq)
				}
				_, _, e := idx.Nearest(queries.At(i))
				wantEvals += e
			}
			if evals != wantEvals {
				t.Fatalf("trial %d prepared=%v: batch charged %d evals, per-point %d", trial, x != nil, evals, wantEvals)
			}
			if evals > int64(queries.N)*int64(centers.N) {
				t.Fatalf("trial %d: batch charged %d evals, above n·k = %d", trial, evals, queries.N*centers.N)
			}
		}
	}
}

// TestNearestBatchPreparedIndexAllocatesNothing: with the index prepared
// once, as a server snapshot holds it, a batch at the served shape (GAU
// dim 2, k = 50, 256 queries: the sweep) allocates nothing, so no request
// rebuilds the sweep.
func TestNearestBatchPreparedIndexAllocatesNothing(t *testing.T) {
	ds := dataset.Gau(dataset.GauConfig{N: 20_000, KPrime: 25, Seed: 7}).Points
	queries := dataset.Gau(dataset.GauConfig{N: 256, KPrime: 25, Seed: 8}).Points
	centers := ds.Subset(core.Gonzalez(ds, 50, core.Options{First: 0}).Centers)
	idx := metric.NewIndex(centers)
	outC := make([]int, queries.N)
	outSq := make([]float64, queries.N)
	if allocs := testing.AllocsPerRun(20, func() {
		NearestBatch(centers, idx, queries, outC, outSq)
	}); allocs != 0 {
		t.Fatalf("NearestBatch with a prepared index: %v allocations per batch, want 0", allocs)
	}
}
