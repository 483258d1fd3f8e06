package eim

import (
	"math"
	"testing"

	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/mapreduce"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

func TestThresholdFormula(t *testing.T) {
	// (4/ε)·k·n^ε·ln n at ε=0.1, n=1e5, k=10.
	got := Threshold(100000, 10, 0.1)
	want := 40.0 * 10 * math.Pow(1e5, 0.1) * math.Log(1e5)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("threshold %v, want %v", got, want)
	}
	if Threshold(1, 10, 0.1) != 0 {
		t.Fatal("threshold for n<=1 should be 0")
	}
}

func TestSelectPosition(t *testing.T) {
	// φ=8, n=1e5: ⌈8·ln(1e5)⌉ = ⌈92.1⌉ = 93.
	if got := SelectPosition(100000, 1000, 8); got != 93 {
		t.Fatalf("position %d, want 93", got)
	}
	// Clamped to |H|.
	if got := SelectPosition(100000, 10, 8); got != 10 {
		t.Fatalf("clamped position %d, want 10", got)
	}
	// Never below 1.
	if got := SelectPosition(2, 5, 0.0001); got != 1 {
		t.Fatalf("floor position %d, want 1", got)
	}
}

func TestRunBasic(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 30000, Seed: 1})
	res, err := Run(l.Points, Config{K: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 5 {
		t.Fatalf("%d centers", len(res.Centers))
	}
	if res.FellBack {
		t.Fatal("n=30000, k=5 should sample, not fall back")
	}
	if res.Iterations < 1 {
		t.Fatal("expected at least one sampling iteration")
	}
	if res.MapReduceRounds != 3*res.Iterations+1 {
		t.Fatalf("rounds %d for %d iterations", res.MapReduceRounds, res.Iterations)
	}
	if res.Stats.NumRounds() != res.MapReduceRounds {
		t.Fatalf("engine rounds %d, result rounds %d", res.Stats.NumRounds(), res.MapReduceRounds)
	}
	if res.Radius <= 0 {
		t.Fatalf("radius %v", res.Radius)
	}
}

func TestRShrinksEveryIteration(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 50000, Seed: 2})
	res, err := Run(l.Points, Config{K: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range res.PerIteration {
		if it.RAfter >= it.RBefore {
			t.Fatalf("iteration %d: |R| %d -> %d did not shrink", i, it.RBefore, it.RAfter)
		}
	}
	// Terminal |R| must be at or below the threshold (or the loop ended).
	last := res.PerIteration[len(res.PerIteration)-1]
	if float64(last.RAfter) > Threshold(l.Points.N, 3, 0.1) {
		t.Fatalf("final |R| = %d above threshold %v yet loop stopped",
			last.RAfter, Threshold(l.Points.N, 3, 0.1))
	}
}

func TestFallbackWhenKLarge(t *testing.T) {
	// Paper Fig. 4b: when k is large relative to n the while-condition never
	// holds and EIM just runs GON on the whole input.
	l := dataset.Unif(dataset.UnifConfig{N: 5000, Seed: 4})
	res, err := Run(l.Points, Config{K: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack {
		t.Fatalf("expected fallback: threshold %v vs n %d", Threshold(5000, 100, 0.1), 5000)
	}
	if res.MapReduceRounds != 1 {
		t.Fatalf("fallback should be 1 round, got %d", res.MapReduceRounds)
	}
	if res.SampleSize != l.Points.N {
		t.Fatalf("fallback sample %d, want full n", res.SampleSize)
	}
	gon := core.Gonzalez(l.Points, 100, core.Options{})
	if math.Abs(res.Radius-gon.Radius) > 1e-9*(1+gon.Radius) {
		t.Fatalf("fallback radius %v != GON radius %v", res.Radius, gon.Radius)
	}
}

func TestSampleCoversDataset(t *testing.T) {
	// The returned solution must be a feasible k-center solution: every
	// point has a center within the reported radius.
	l := dataset.Gau(dataset.GauConfig{N: 20000, KPrime: 10, Seed: 6})
	res, err := Run(l.Points, Config{K: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.CoveringRadius(l.Points, res.Centers)
	if math.Abs(res.Radius-want) > 1e-9*(1+want) {
		t.Fatalf("radius %v, want %v", res.Radius, want)
	}
}

func TestQualityOnClusteredData(t *testing.T) {
	// With k = k′ clusters, EIM should land near the cluster radius — the
	// paper reports it often slightly beats GON here (Table 4 discussion).
	l := dataset.Gau(dataset.GauConfig{N: 30000, KPrime: 25, Seed: 9})
	res, err := Run(l.Points, Config{K: 25, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius > 10 {
		t.Fatalf("EIM radius %v on sigma=0.1 clusters; failed to separate", res.Radius)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 20000, Seed: 11})
	a, err := Run(l.Points, Config{K: 5, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(l.Points, Config{K: 5, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if a.Radius != b.Radius || a.Iterations != b.Iterations {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", a.Radius, a.Iterations, b.Radius, b.Iterations)
	}
	for i := range a.Centers {
		if a.Centers[i] != b.Centers[i] {
			t.Fatal("same seed, different centers")
		}
	}
}

func TestSeedsVaryResult(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 20000, Seed: 12})
	a, _ := Run(l.Points, Config{K: 5, Seed: 1})
	b, _ := Run(l.Points, Config{K: 5, Seed: 2})
	// Radii should usually differ (random sampling); identical radii across
	// different seeds would suggest the seed is ignored.
	if a.Radius == b.Radius {
		c, _ := Run(l.Points, Config{K: 5, Seed: 3})
		if a.Radius == c.Radius {
			t.Fatalf("three different seeds, identical radius %v — seed ignored?", a.Radius)
		}
	}
}

func TestPhiAffectsSampleSize(t *testing.T) {
	// Lower φ picks a nearer pivot, removing more of R per iteration, so the
	// retained sample C should not be larger than with high φ (§4.2).
	l := dataset.Gau(dataset.GauConfig{N: 50000, KPrime: 25, Seed: 13})
	lo, err := Run(l.Points, Config{K: 25, Seed: 14, Phi: 1})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(l.Points, Config{K: 25, Seed: 14, Phi: 8})
	if err != nil {
		t.Fatal(err)
	}
	if lo.FellBack || hi.FellBack {
		t.Fatal("unexpected fallback")
	}
	// Simulated work with φ=1 should not exceed that of φ=8 by much: it is
	// usually smaller, can tie when both finish in one iteration, and the
	// bound leaves 1.5× of slack for sampling noise.
	if lo.Stats.SimulatedOps() > hi.Stats.SimulatedOps()*3/2 {
		t.Fatalf("phi=1 ops %d not smaller than phi=8 ops %d",
			lo.Stats.SimulatedOps(), hi.Stats.SimulatedOps())
	}
}

func TestConfigValidation(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 100, Seed: 15})
	if _, err := Run(l.Points, Config{K: 0}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := Run(nil, Config{K: 1}); err == nil {
		t.Fatal("nil dataset should fail")
	}
	if _, err := Run(metric.NewDataset(0, 1), Config{K: 1}); err == nil {
		t.Fatal("empty dataset should fail")
	}
	if _, err := Run(l.Points, Config{K: 1, Epsilon: 1.5}); err == nil {
		t.Fatal("epsilon >= 1 should fail")
	}
	if _, err := Run(l.Points, Config{K: 1, Epsilon: -0.1}); err == nil {
		t.Fatal("negative epsilon should fail")
	}
	if _, err := Run(l.Points, Config{K: 1, Phi: -2}); err == nil {
		t.Fatal("negative phi should fail")
	}
}

func TestCapacityEnforced(t *testing.T) {
	// A tiny capacity makes the single-machine select/final rounds fail.
	l := dataset.Unif(dataset.UnifConfig{N: 30000, Seed: 16})
	_, err := Run(l.Points, Config{
		K:       5,
		Seed:    17,
		Cluster: mapreduce.Config{Machines: 50, Capacity: 10},
	})
	if err == nil {
		t.Fatal("expected capacity failure")
	}
}

func TestDedupe(t *testing.T) {
	got := dedupe([]int{3, 1, 3, 2, 1, 4})
	want := []int{3, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("dedupe = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedupe = %v, want %v", got, want)
		}
	}
}

func TestPerIterationStatsPopulated(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 40000, Seed: 18})
	res, err := Run(l.Points, Config{K: 4, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerIteration) != res.Iterations {
		t.Fatalf("%d iteration stats for %d iterations", len(res.PerIteration), res.Iterations)
	}
	for i, it := range res.PerIteration {
		if it.RBefore <= 0 || it.HSize < 0 || it.Sampled < 0 {
			t.Fatalf("iteration %d stats look wrong: %+v", i, it)
		}
		if it.PivotDist < 0 {
			t.Fatalf("iteration %d negative pivot distance", i)
		}
	}
}

// TestEIMTerminationAdversarial reproduces the §4.1 hazard: many duplicate
// points, so sampled points sit at distance zero and (under the original
// scheme) equal-distance points would stay in R forever. With the fixes the
// run must terminate.
func TestEIMTerminationAdversarial(t *testing.T) {
	res, err := Run(duplicatedLocations(20000, 20), Config{K: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius != 0 {
		t.Fatalf("10 duplicated locations, k=10: radius %v, want 0", res.Radius)
	}
}

// duplicatedLocations returns n 2-D points drawn from 10 distinct random
// locations, so most points are exact duplicates of one another.
func duplicatedLocations(n int, seed uint64) *metric.Dataset {
	ds := metric.NewDataset(n, 2)
	r := rng.New(seed)
	locs := make([][2]float64, 10)
	for i := range locs {
		locs[i] = [2]float64{r.Float64() * 100, r.Float64() * 100}
	}
	for i := 0; i < n; i++ {
		l := locs[r.Intn(10)]
		ds.At(i)[0], ds.At(i)[1] = l[0], l[1]
	}
	return ds
}

// TestTenApproxEmpirical: on instances with a computable optimum, EIM's
// radius stays within the probabilistic 10-approximation guarantee. The
// bound holds w.s.p., so a failure here on fixed seeds indicates a real bug
// rather than bad luck.
func TestTenApproxEmpirical(t *testing.T) {
	r := rng.New(22)
	for trial := 0; trial < 10; trial++ {
		n := 10 + r.Intn(4)
		k := 1 + r.Intn(2)
		ds := metric.NewDataset(n, 2)
		for i := range ds.Data {
			ds.Data[i] = r.Float64Range(-20, 20)
		}
		opt := core.ExactSmall(ds, k)
		res, err := Run(ds, Config{K: k, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Radius > 10*opt.Radius+1e-9 {
			t.Fatalf("trial %d: EIM radius %v > 10·OPT = %v", trial, res.Radius, 10*opt.Radius)
		}
	}
}

// BenchmarkEIM runs EIM with a fixed sampling seed, so every iteration
// does the same work. The gau case is the perfbench batch workload's EIM
// instance: 100,000 2-D GAU points (k′ = 25), k = 10, φ = 8, ε = 0.1 and
// 50 machines. The kdd case is fig1's input at n = 10⁵ (KDD-like, dim 38)
// with fig1's settings at k = 25: the default φ and ε and 50 machines.
func BenchmarkEIM(b *testing.B) {
	cases := []struct {
		name string
		ds   *metric.Dataset
		cfg  Config
	}{
		{"unif-50k", dataset.Unif(dataset.UnifConfig{N: 50000, Seed: 1}).Points, Config{K: 10, Seed: 1}},
		{"gau-100k", dataset.Gau(dataset.GauConfig{N: 100000, KPrime: 25, Seed: 1}).Points,
			Config{K: 10, Phi: 8, Epsilon: 0.1, Cluster: mapreduce.Config{Machines: 50}, Seed: 1}},
		{"kdd-100k", dataset.KDDLike(dataset.KDDLikeConfig{N: 100000, Seed: 1}).Points,
			Config{K: 25, Cluster: mapreduce.Config{Machines: 50}, Seed: 1}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(tc.ds, tc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
