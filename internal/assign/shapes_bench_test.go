package assign_test

import (
	"strconv"
	"testing"

	"kcenter/internal/assign"
	"kcenter/internal/dataset"
	"kcenter/internal/mapreduce"
	"kcenter/internal/metric"
	"kcenter/internal/mrg"
)

// BenchmarkEvaluateShapes covers the shapes preferGrid is fitted on:
// Evaluate on MRG's centers over GAU n = 10⁶, k′ = 25 (dataset.Gau seed 7,
// the shape of MRG's final evaluation in the paper's GAU runs) across the
// paper's k sweep, and over UNIF n = 10⁶ at k = 50. Two shapes off dim 2,
// where preferGrid keeps the index today, give ROADMAP item 9 its
// parent rows: GAU n = 10⁵ at dim 3 (k = 50) and KDD-like n = 10⁵, fig1's
// input at dim 38 (k = 25). Each shape runs the
// adaptive entry point and, beside it, the metric.Index and the grid
// filter forced, so a shift of the crossover shows in one run.
func BenchmarkEvaluateShapes(b *testing.B) {
	gau := dataset.Gau(dataset.GauConfig{N: 1_000_000, KPrime: 25, Seed: 7}).Points
	unif := dataset.Unif(dataset.UnifConfig{N: 1_000_000, Seed: 7}).Points
	gauD3 := dataset.Gau(dataset.GauConfig{N: 100_000, KPrime: 25, Dim: 3, Seed: 7}).Points
	kdd := dataset.KDDLike(dataset.KDDLikeConfig{N: 100_000, Seed: 7}).Points
	shapes := []struct {
		name string
		ds   *metric.Dataset
		k    int
	}{
		{"gau", gau, 10}, {"gau", gau, 25}, {"gau", gau, 50}, {"gau", gau, 100},
		{"unif", unif, 50},
		{"gau-d3", gauD3, 50}, {"kdd", kdd, 25},
	}
	for _, s := range shapes {
		res, err := mrg.Run(s.ds, mrg.Config{K: s.k, Cluster: mapreduce.Config{Machines: 50}})
		if err != nil {
			b.Fatal(err)
		}
		name := s.name + "/n=" + strconv.Itoa(s.ds.N) + "/k=" + strconv.Itoa(s.k)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				assign.Evaluate(s.ds, res.Centers, 0)
			}
		})
		for _, m := range []struct {
			name string
			mode assign.EvalMode
		}{{"index", assign.ModeIndex}, {"grid", assign.ModeGrid}} {
			b.Run(name+"/"+m.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					assign.EvaluateMode(s.ds, res.Centers, 0, m.mode)
				}
			})
		}
	}
}
