package mrg

import (
	"math"
	"strings"
	"testing"

	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/mapreduce"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

func TestTwoRoundDefault(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 10000, Seed: 1})
	res, err := Run(l.Points, Config{K: 10, Cluster: mapreduce.Config{Machines: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1 (two-round case)", res.Iterations)
	}
	if res.MapReduceRounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.MapReduceRounds)
	}
	if res.ApproxFactor != 4 {
		t.Fatalf("approx factor %v, want 4", res.ApproxFactor)
	}
	if len(res.Centers) != 10 {
		t.Fatalf("%d centers", len(res.Centers))
	}
	if res.SampleSizes[0] != 10*50 {
		t.Fatalf("sample after round 1 = %d, want k·m = 500", res.SampleSizes[0])
	}
	if res.Stats.NumRounds() != 2 {
		t.Fatalf("engine recorded %d rounds", res.Stats.NumRounds())
	}
}

// TestFourApprox verifies Lemma 2's guarantee against the exact oracle on
// small instances, for the input order and for a row-permuted copy: MRG
// partitions contiguously and starts GON at each partition's first point,
// so permuting the rows exercises other arbitrary partitions and first
// centers, while OPT is unchanged.
func TestFourApprox(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 40; trial++ {
		n := 8 + r.Intn(6)
		k := 1 + r.Intn(3)
		ds := metric.NewDataset(n, 2)
		for i := range ds.Data {
			ds.Data[i] = r.Float64Range(-20, 20)
		}
		opt := core.ExactSmall(ds, k)
		shuffled := ds.Subset(rng.New(uint64(trial)).Perm(n))
		for leg, in := range []*metric.Dataset{ds, shuffled} {
			res, err := Run(in, Config{
				K:       k,
				Cluster: mapreduce.Config{Machines: 3, Capacity: n},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Radius > 4*opt.Radius+1e-9 {
				t.Fatalf("trial %d permuted=%v: MRG radius %v > 4·OPT = %v",
					trial, leg == 1, res.Radius, 4*opt.Radius)
			}
		}
	}
}

func TestMultiRound(t *testing.T) {
	// Force multiple iterations: k·m > c so the first union does not fit.
	l := dataset.Unif(dataset.UnifConfig{N: 4000, Seed: 3})
	res, err := Run(l.Points, Config{
		K:       5,
		Cluster: mapreduce.Config{Machines: 40, Capacity: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("iterations = %d, want >= 2 (k·m = 200 > c = 100)", res.Iterations)
	}
	if res.ApproxFactor != 2*float64(res.Iterations+1) {
		t.Fatalf("approx factor %v for %d iterations", res.ApproxFactor, res.Iterations)
	}
	// Sample sizes must decrease monotonically and end within capacity.
	prev := l.Points.N
	for _, s := range res.SampleSizes {
		if s >= prev {
			t.Fatalf("sample sizes not decreasing: %v", res.SampleSizes)
		}
		prev = s
	}
	if last := res.SampleSizes[len(res.SampleSizes)-1]; last > 100 {
		t.Fatalf("final sample %d exceeds capacity", last)
	}
}

func TestMultiRoundApproxBound(t *testing.T) {
	// On tiny instances, force 2 iterations and check the 6-approximation.
	r := rng.New(4)
	for trial := 0; trial < 15; trial++ {
		n := 12
		k := 2
		ds := metric.NewDataset(n, 2)
		for i := range ds.Data {
			ds.Data[i] = r.Float64Range(-20, 20)
		}
		opt := core.ExactSmall(ds, k)
		res, err := Run(ds, Config{
			K:       k,
			Cluster: mapreduce.Config{Machines: 4, Capacity: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		bound := res.ApproxFactor * opt.Radius
		if res.Radius > bound+1e-9 {
			t.Fatalf("trial %d: radius %v > %v·OPT = %v", trial, res.Radius, res.ApproxFactor, bound)
		}
	}
}

func TestQualityComparableToGonzalezOnClusters(t *testing.T) {
	// Paper §8.1: on synthetic data MRG is about as effective as GON.
	l := dataset.Gau(dataset.GauConfig{N: 20000, KPrime: 25, Seed: 5})
	gon := core.Gonzalez(l.Points, 25, core.Options{})
	res, err := Run(l.Points, Config{K: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius > 3*gon.Radius+1e-9 {
		t.Fatalf("MRG radius %v much worse than GON %v", res.Radius, gon.Radius)
	}
}

func TestErrorCases(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 100, Seed: 7})
	if _, err := Run(l.Points, Config{K: 0}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := Run(nil, Config{K: 1}); err == nil {
		t.Fatal("nil dataset should fail")
	}
	if _, err := Run(metric.NewDataset(0, 2), Config{K: 1}); err == nil {
		t.Fatal("empty dataset should fail")
	}
	// Aggregate capacity too small to hold the input.
	if _, err := Run(l.Points, Config{K: 1, Cluster: mapreduce.Config{Machines: 2, Capacity: 10}}); err == nil {
		t.Fatal("m·c < n should fail")
	}
	// k exceeding single-machine capacity.
	if _, err := Run(l.Points, Config{K: 60, Cluster: mapreduce.Config{Machines: 10, Capacity: 50}}); err == nil {
		t.Fatal("k > c should fail")
	}
}

func TestNonConvergentConfigFails(t *testing.T) {
	// k = c/2 exactly: k·m' never drops below c (2k = c boundary). With
	// m·c >= n but k too large relative to c the sample cannot shrink; the
	// run must fail with a diagnostic rather than loop forever.
	l := dataset.Unif(dataset.UnifConfig{N: 1000, Seed: 8})
	_, err := Run(l.Points, Config{
		K:       20,
		Cluster: mapreduce.Config{Machines: 50, Capacity: 25},
	})
	if err == nil {
		t.Fatal("expected failure when k is too close to capacity")
	}
	if !strings.Contains(err.Error(), "mrg:") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestRadiusMatchesEvaluation(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 2000, Seed: 9})
	res, err := Run(l.Points, Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.CoveringRadius(l.Points, res.Centers)
	if math.Abs(res.Radius-want) > 1e-9*(1+want) {
		t.Fatalf("radius %v, want %v", res.Radius, want)
	}
	if res.Evaluation == nil || len(res.Evaluation.Assignment) != l.Points.N {
		t.Fatal("evaluation missing")
	}
}

func TestKLargerThanPartition(t *testing.T) {
	// Partitions smaller than k: reducers return their whole partition as
	// centers; the algorithm must still produce a valid solution.
	l := dataset.Unif(dataset.UnifConfig{N: 40, Seed: 10})
	res, err := Run(l.Points, Config{K: 8, Cluster: mapreduce.Config{Machines: 10, Capacity: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 8 {
		t.Fatalf("%d centers", len(res.Centers))
	}
}

func TestSimulatedCostReflectsParallelism(t *testing.T) {
	// The simulated cost of the parallel round should be ~k·(n/m), far below
	// the sequential k·n.
	l := dataset.Unif(dataset.UnifConfig{N: 50000, Seed: 11})
	res, err := Run(l.Points, Config{K: 10, Cluster: mapreduce.Config{Machines: 50}})
	if err != nil {
		t.Fatal(err)
	}
	round1 := res.Stats.Rounds[0]
	perMachine := int64(10 * (50000/50 + 1))
	if round1.MaxOps > perMachine*2 {
		t.Fatalf("round-1 max ops %d, want about %d", round1.MaxOps, perMachine)
	}
	seq := int64(10 * 50000)
	if res.Stats.SimulatedOps() > seq/2 {
		t.Fatalf("simulated ops %d not clearly below sequential %d", res.Stats.SimulatedOps(), seq)
	}
}

func TestPredictMachines(t *testing.T) {
	// With k << c the recurrence collapses toward 1/(1 - k/c) quickly.
	m10 := PredictMachines(1_000_000, 10, 50, 20000, 10)
	if m10 > 1.1 {
		t.Fatalf("PredictMachines after 10 rounds = %v, want ~1", m10)
	}
	// With k close to c the machine count barely shrinks.
	stuck := PredictMachines(1_000_000, 9000, 50, 20000, 3)
	if stuck < 5 {
		t.Fatalf("PredictMachines with k~c = %v, want slow convergence", stuck)
	}
	if PredictMachines(10, 1, 1, 0, 1) != 0 {
		t.Fatal("c=0 should yield 0")
	}
}

func BenchmarkMRGTwoRound(b *testing.B) {
	l := dataset.Unif(dataset.UnifConfig{N: 100000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(l.Points, Config{K: 25}); err != nil {
			b.Fatal(err)
		}
	}
}
