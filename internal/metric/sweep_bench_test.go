package metric_test

import (
	"math"
	"sort"
	"testing"

	"kcenter/internal/dataset"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// lowerSink keeps BenchmarkSweepLower's calls from being optimized away.
var lowerSink float64

// BenchmarkSweepLower times EIM's removal kernel in isolation, the layer
// under perfbench's eim.remove.sum_wall_ms: one op is Lower for 4,096
// records against a sweep of |ΔS| sampled rows.
//
//   - gau-d2: GAU, n = 100,000, at |ΔS| = 3,300, the sample EIM draws per
//     iteration on perfbench's batch instance (k = 10). With seed=inf the
//     records carry no distance yet (the first iteration); with
//     seed=carried each carries its distance to an earlier sample of the
//     same size (a later iteration).
//   - kdd-d38: KDD-like, n = 100,000, at |ΔS| = 8,000, the sample size of
//     BenchmarkEIM/kdd-100k (k = 25), with the same two kinds of seed.
//
// Each shape runs with no cut, as the select round asks, and with a
// pivot-like cut: the distance within which a share of the records lie,
// the share EIM's removal rounds drop. That is 40% on GAU (batch's rounds
// drop 36–42%), and 60% on KDD-like, where kdd-100k's later pivots (about
// 510 and 550) fall near that share of these records' distances.
func BenchmarkSweepLower(b *testing.B) {
	const records = 4096
	gau := dataset.Gau(dataset.GauConfig{N: 100_000, KPrime: 25, Seed: 1}).Points
	kdd := dataset.KDDLike(dataset.KDDLikeConfig{N: 100_000, Seed: 1}).Points
	for _, sh := range []struct {
		name    string
		ds      *metric.Dataset
		sample  int
		carried bool
		removed float64 // the share of records within the pivot-like cut
	}{
		{"gau-d2/seed=inf", gau, 3300, false, 0.4},
		{"gau-d2/seed=carried", gau, 3300, true, 0.4},
		{"kdd-d38/seed=inf", kdd, 8000, false, 0.6},
		{"kdd-d38/seed=carried", kdd, 8000, true, 0.6},
	} {
		perm := rng.New(1).Perm(sh.ds.N)
		sw := metric.NewSweep(sh.ds.Subset(perm[:sh.sample]))
		queries := sh.ds.Subset(perm[len(perm)-records:])
		seeds := make([]float64, records)
		for i := range seeds {
			seeds[i] = math.Inf(1)
		}
		if sh.carried {
			prev := metric.NewSweep(sh.ds.Subset(perm[sh.sample : 2*sh.sample]))
			for i := range seeds {
				seeds[i] = prev.Lower(queries.At(i), seeds[i], -1)
			}
		}
		dist := make([]float64, records)
		for i := range dist {
			dist[i] = math.Sqrt(sw.Lower(queries.At(i), seeds[i], -1))
		}
		sort.Float64s(dist)
		for _, c := range []struct {
			name string
			cut  float64
		}{{"none", -1}, {"pivot", dist[int(sh.removed*records)]}} {
			b.Run(sh.name+"/cut="+c.name, func(b *testing.B) {
				var sum float64
				for i := 0; i < b.N; i++ {
					for j := 0; j < records; j++ {
						sum += sw.Lower(queries.At(j), seeds[j], c.cut)
					}
				}
				lowerSink = sum
			})
		}
	}
}
