package metric_test

import (
	"strconv"
	"testing"

	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/metric"
)

// BenchmarkNearestBatchShapes covers the shapes NewIndex's sweep rule is
// fitted on: one 256-point query batch (the serving batch perfbench sends)
// against k farthest-first centers of 20,000 points, on GAU and UNIF at
// dims 1, 2 and 3, for k ∈ {5, 10, 16, 25, 50, 100}. The queries are fresh
// draws from the same generator. Each shape runs NewIndex's pick and,
// beside it, the plain scan, the sweep and the pruned scan forced, every
// row building its index per batch as assign.NearestBatch does when given
// none, so a shift of either crossover shows in one run.
func BenchmarkNearestBatchShapes(b *testing.B) {
	const batch = 256
	gen := map[string]func(n, dim int, seed uint64) *metric.Dataset{
		"gau": func(n, dim int, seed uint64) *metric.Dataset {
			return dataset.Gau(dataset.GauConfig{N: n, KPrime: 25, Dim: dim, Seed: seed}).Points
		},
		"unif": func(n, dim int, seed uint64) *metric.Dataset {
			return dataset.Unif(dataset.UnifConfig{N: n, Dim: dim, Seed: seed}).Points
		},
	}
	for _, name := range []string{"gau", "unif"} {
		for _, dim := range []int{1, 2, 3} {
			ds := gen[name](20_000, dim, 7)
			queries := gen[name](batch, dim, 8)
			far := core.Gonzalez(ds, 100, core.Options{First: 0})
			outC := make([]int, batch)
			outSq := make([]float64, batch)
			for _, k := range []int{5, 10, 16, 25, 50, 100} {
				centers := ds.Subset(far.Centers[:k])
				shape := name + "/d=" + strconv.Itoa(dim) + "/k=" + strconv.Itoa(k)
				b.Run(shape, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						metric.NewIndex(centers).NearestBatch(queries, outC, outSq)
					}
				})
				for _, m := range []struct {
					name string
					kind metric.IndexKind
				}{{"plain", metric.KindPlain}, {"sweep", metric.KindSweep}, {"pruned", metric.KindPruned}} {
					b.Run(shape+"/"+m.name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							metric.NewIndexOfKind(centers, m.kind).NearestBatch(queries, outC, outSq)
						}
					})
				}
			}
		}
	}
}
