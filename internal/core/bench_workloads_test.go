package core

import (
	"testing"

	"kcenter/internal/dataset"
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
// engagement rule (preferBlocks) is fitted on: GonzalezAssign on GAU
// n = 10⁶, k′ = 25 — perfbench's batch GON at k = 50 — across the paper's k
// sweep, and GonzalezSubset on a 20,000-point contiguous partition at
// k = 50, the shape of each MRG reducer on that input.
func BenchmarkGonzalezShapes(b *testing.B) {
	ds := dataset.Gau(dataset.GauConfig{N: 1_000_000, KPrime: 25, Seed: 7}).Points
	for _, k := range []int{2, 5, 10, 25, 50, 100} {
		b.Run("assign/n=1000000/k="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GonzalezAssign(ds, k, Options{First: 0})
			}
		})
	}
	idx := make([]int, 20_000)
	for i := range idx {
		idx[i] = i
	}
	b.Run("subset/n=20000/k=50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GonzalezSubset(ds, idx, 50, Options{First: 0})
		}
	})
}
