package assign

import (
	"math"
	"testing"

	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/metric"
)

// evaluateUnpruned is the pre-kernel reference: a full n×k scan with the
// same tie-breaking (strict < in center order). It is the oracle for the
// pruning-correctness tests below.
func evaluateUnpruned(ds *metric.Dataset, centers []int) *Evaluation {
	cpts := ds.Subset(centers)
	n := ds.N
	ev := &Evaluation{
		Assignment:   make([]int, n),
		Dist:         make([]float64, n),
		ClusterSizes: make([]int, len(centers)),
		Farthest:     -1,
	}
	var radiusSq float64
	for i := 0; i < n; i++ {
		pt := ds.At(i)
		bestSq, bestC := math.Inf(1), 0
		for c := 0; c < cpts.N; c++ {
			if sq := metric.SqDist(pt, cpts.At(c)); sq < bestSq {
				bestSq = sq
				bestC = c
			}
		}
		ev.Assignment[i] = bestC
		ev.Dist[i] = math.Sqrt(bestSq)
		ev.ClusterSizes[bestC]++
		if bestSq > radiusSq {
			radiusSq = bestSq
			ev.Farthest = i
		}
	}
	if ev.Farthest == -1 && n > 0 {
		ev.Farthest = 0
	}
	ev.Radius = math.Sqrt(radiusSq)
	return ev
}

func assertIdentical(t *testing.T, name string, got, want *Evaluation) {
	t.Helper()
	if math.Float64bits(got.Radius) != math.Float64bits(want.Radius) {
		t.Fatalf("%s: radius %v != %v", name, got.Radius, want.Radius)
	}
	if got.Farthest != want.Farthest {
		t.Fatalf("%s: farthest %d != %d", name, got.Farthest, want.Farthest)
	}
	for i := range want.Assignment {
		if got.Assignment[i] != want.Assignment[i] {
			t.Fatalf("%s: assignment[%d] = %d != %d", name, i, got.Assignment[i], want.Assignment[i])
		}
		if math.Float64bits(got.Dist[i]) != math.Float64bits(want.Dist[i]) {
			t.Fatalf("%s: dist[%d] = %v != %v", name, i, got.Dist[i], want.Dist[i])
		}
	}
	for c := range want.ClusterSizes {
		if got.ClusterSizes[c] != want.ClusterSizes[c] {
			t.Fatalf("%s: cluster %d size %d != %d", name, c, got.ClusterSizes[c], want.ClusterSizes[c])
		}
	}
}

// TestEvaluatePrunedIdenticalToUnpruned is the pruning-correctness gate:
// on the paper's workload families the pruned evaluation must reproduce
// the unpruned one bit for bit — assignments, distances, radius, farthest
// point and cluster sizes — while performing strictly fewer evaluations
// than the n·k the full scan would need (plus the k² matrix).
func TestEvaluatePrunedIdenticalToUnpruned(t *testing.T) {
	workloads := []struct {
		name string
		ds   *metric.Dataset
		k    int
	}{
		{"UNIF-2D", dataset.Unif(dataset.UnifConfig{N: 8000, Seed: 31}).Points, 25},
		{"GAU-2D", dataset.Gau(dataset.GauConfig{N: 8000, KPrime: 25, Seed: 32}).Points, 25},
		{"UNB-2D", dataset.Unb(dataset.GauConfig{N: 8000, KPrime: 25, Seed: 33}).Points, 25},
		{"GAU-3D", dataset.Gau(dataset.GauConfig{N: 6000, KPrime: 10, Dim: 3, Seed: 34}).Points, 10},
		{"POKER-10D", dataset.PokerLike(35).Points.Subset(rangeInts(4000)), 10},
		{"k=1", dataset.Unif(dataset.UnifConfig{N: 1000, Seed: 36}).Points, 1},
	}
	for _, w := range workloads {
		res := core.Gonzalez(w.ds, w.k, core.Options{First: 0})
		want := evaluateUnpruned(w.ds, res.Centers)
		for _, workers := range []int{1, 4} {
			got := Evaluate(w.ds, res.Centers, workers)
			assertIdentical(t, w.name, got, want)
			full := int64(w.ds.N)*int64(len(res.Centers)) + int64(len(res.Centers))*int64(len(res.Centers))
			if got.DistEvals > full {
				t.Fatalf("%s: %d evaluations exceeds the unpruned total %d", w.name, got.DistEvals, full)
			}
		}
	}
}

func rangeInts(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
