package core

import (
	"testing"

	"kcenter/internal/dataset"
	"kcenter/internal/metric"
)

// The acceptance workloads for the kernel-engine PR: the full Gonzalez
// relaxation (k one-to-many RelaxFarthest passes) on 2-D UNIF and GAU at
// n=50k, k=25. These feed BENCH_kernels.json.

func BenchmarkGonzalezUNIF2D(b *testing.B) {
	l := dataset.Unif(dataset.UnifConfig{N: 50000, Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gonzalez(l.Points, 25, Options{First: 0})
	}
}

func BenchmarkGonzalezGAU2D(b *testing.B) {
	l := dataset.Gau(dataset.GauConfig{N: 50000, KPrime: 25, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gonzalez(l.Points, 25, Options{First: 0})
	}
}

// BenchmarkGonzalezShapes covers the shapes the blocked traversal's
// engagement rule (preferBlocks) and its worker threshold (parallelMinN)
// are fitted on:
//
//   - GonzalezAssign on GAU n = 10⁶, k′ = 25 (perfbench's batch GON at
//     k = 50) across the paper's k sweep;
//   - the same at k = 50 on GAU prefixes of n = 2¹⁶ and 2¹⁷ points, the two
//     sides of parallelMinN (run with -cpu 1,2: at GOMAXPROCS 1 every
//     traversal runs on one worker);
//   - GonzalezSubset on a 20,000-point contiguous partition at k = 50, the
//     shape of each MRG reducer on that input, which always runs on one
//     worker;
//   - GonzalezAssign off dim 2, where preferBlocks keeps the plain scan
//     today: GAU n = 10⁵ at dim 3 and KDD-like n = 10⁵ (fig1's input,
//     dim 38), at k = 25 and 50, the parent rows of ROADMAP item 9.
func BenchmarkGonzalezShapes(b *testing.B) {
	ds := dataset.Gau(dataset.GauConfig{N: 1_000_000, KPrime: 25, Seed: 7}).Points
	for _, k := range []int{2, 5, 10, 25, 50, 100} {
		b.Run("assign/n=1000000/k="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GonzalezAssign(ds, k, Options{First: 0})
			}
		})
	}
	for _, n := range []int{1 << 16, parallelMinN} {
		prefix := ds.Subset(identity(n))
		b.Run("assign/n="+itoa(n)+"/k=50", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GonzalezAssign(prefix, 50, Options{First: 0})
			}
		})
	}
	idx := identity(20_000)
	b.Run("subset/n=20000/k=50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GonzalezSubset(ds, idx, 50, Options{First: 0})
		}
	})
	for _, in := range []struct {
		name string
		ds   *metric.Dataset
	}{
		{"gau-d3", dataset.Gau(dataset.GauConfig{N: 100_000, KPrime: 25, Dim: 3, Seed: 7}).Points},
		{"kdd", dataset.KDDLike(dataset.KDDLikeConfig{N: 100_000, Seed: 7}).Points},
	} {
		for _, k := range []int{25, 50} {
			b.Run("assign/"+in.name+"/n=100000/k="+itoa(k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					GonzalezAssign(in.ds, k, Options{First: 0})
				}
			})
		}
	}
}

// identity returns the positions 0, 1, …, n−1.
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
