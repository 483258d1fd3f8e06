package assign

import (
	"math"
	"testing"

	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

func TestEvaluateKnownInstance(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{0}, {1}, {9}, {10}, {4}})
	ev := Evaluate(ds, []int{0, 3}, 0)
	wantAssign := []int{0, 0, 1, 1, 0}
	for i, a := range ev.Assignment {
		if a != wantAssign[i] {
			t.Fatalf("Assignment[%d] = %d, want %d", i, a, wantAssign[i])
		}
	}
	if ev.Radius != 4 || ev.Farthest != 4 {
		t.Fatalf("radius %v farthest %d, want 4 / 4", ev.Radius, ev.Farthest)
	}
	if ev.ClusterSizes[0] != 3 || ev.ClusterSizes[1] != 2 {
		t.Fatalf("sizes %v", ev.ClusterSizes)
	}
	// Two centers at dim 1 take the index's plain scan: exactly n·k = 5·2 =
	// 10 evaluations, no matrix.
	if ev.DistEvals != 10 {
		t.Fatalf("evals %d, want 10", ev.DistEvals)
	}
}

func TestEvaluateTieBreaksToLowerCenter(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{0}, {2}, {1}})
	ev := Evaluate(ds, []int{0, 1}, 1)
	if ev.Assignment[2] != 0 {
		t.Fatalf("equidistant point assigned to %d, want 0 (consistent ties)", ev.Assignment[2])
	}
}

func TestEvaluateMatchesCoreCoveringRadius(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 10; trial++ {
		n := 100 + r.Intn(400)
		ds := metric.NewDataset(n, 3)
		for i := range ds.Data {
			ds.Data[i] = r.Float64Range(-10, 10)
		}
		centers := r.Sample(n, 1+r.Intn(8))
		want, _ := core.CoveringRadius(ds, centers)
		for _, workers := range []int{1, 3, 0} {
			ev := Evaluate(ds, centers, workers)
			if math.Abs(ev.Radius-want) > 1e-9*(1+want) {
				t.Fatalf("workers=%d radius %v, want %v", workers, ev.Radius, want)
			}
		}
	}
}

func TestEvaluateParallelDeterminism(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 5000, Seed: 2})
	centers := []int{0, 100, 2000, 4999}
	a := Evaluate(l.Points, centers, 1)
	b := Evaluate(l.Points, centers, 8)
	if a.Radius != b.Radius {
		t.Fatalf("radius differs: %v vs %v", a.Radius, b.Radius)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatalf("assignment differs at %d", i)
		}
	}
}

func TestEvaluateClusterSizesSumToN(t *testing.T) {
	l := dataset.Gau(dataset.GauConfig{N: 3000, KPrime: 5, Seed: 3})
	ev := Evaluate(l.Points, []int{0, 1, 2}, 0)
	total := 0
	for _, s := range ev.ClusterSizes {
		total += s
	}
	if total != 3000 {
		t.Fatalf("cluster sizes sum to %d", total)
	}
}

func TestEvaluateSingleWorkerMoreWorkersThanPoints(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{0}, {1}})
	ev := Evaluate(ds, []int{0}, 64)
	if ev.Radius != 1 {
		t.Fatalf("radius %v", ev.Radius)
	}
}

func TestEvaluatePanicsWithoutCenters(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{0}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Evaluate(ds, nil, 0)
}

func TestRadiusWrapper(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{0}, {3}})
	if r := Radius(ds, []int{0}); r != 3 {
		t.Fatalf("Radius = %v", r)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	l := dataset.Unif(dataset.UnifConfig{N: 100000, Seed: 1})
	res := core.Gonzalez(l.Points, 50, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(l.Points, res.Centers, 0)
	}
}
