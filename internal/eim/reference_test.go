package eim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"kcenter/internal/assign"
	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/mapreduce"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// fullRescan is Algorithm 2 as the paper states it: every iteration gathers
// all of S and measures each point of R (and each candidate of H) against
// it. It partitions R and draws its Bernoulli variates exactly as Run does,
// so Run, which carries d(x,S) across iterations and scans only the newly
// sampled points, must reproduce it bit for bit.
func fullRescan(ds *metric.Dataset, cfg Config) *Result {
	cfg = cfg.withDefaults()
	n := ds.N
	r := rng.New(cfg.Seed)
	res := &Result{}
	R := make([]int, n)
	for i := range R {
		R[i] = i
	}
	var S []int
	logn := math.Log(float64(n))
	ne := math.Pow(float64(n), cfg.Epsilon)
	for float64(len(R)) > Threshold(n, cfg.K, cfg.Epsilon) && res.Iterations < cfg.MaxIterations {
		it := IterationStats{RBefore: len(R)}
		pS := math.Min(1, 9*float64(cfg.K)*ne*logn/float64(len(R)))
		pH := math.Min(1, 4*ne*logn/float64(len(R)))
		var H []int
		bounds := mapreduce.PartitionBounds(len(R), cfg.Cluster.Machines)
		for i := 0; i+1 < len(bounds); i++ {
			reducerRng := r.Split(uint64(res.Iterations)<<32 | uint64(i))
			for pos := bounds[i]; pos < bounds[i+1]; pos++ {
				if reducerRng.Bernoulli(pS) {
					S = append(S, R[pos])
					it.Sampled++
				}
				if reducerRng.Bernoulli(pH) {
					H = append(H, R[pos])
				}
			}
		}
		it.HSize = len(H)
		var all *metric.Dataset
		if len(S) > 0 {
			all = ds.Subset(S)
		}
		if len(H) > 0 && len(S) > 0 {
			dH := make([]float64, len(H))
			for i, h := range H {
				dH[i] = distToGathered(all, ds.At(h))
			}
			sort.Float64s(dH)
			it.PivotDist = dH[len(dH)-SelectPosition(n, len(dH), cfg.Phi)]
		}
		var nextR []int
		for _, x := range R {
			if len(S) == 0 || distToGathered(all, ds.At(x)) > it.PivotDist {
				nextR = append(nextR, x)
			}
		}
		stalled := len(nextR) >= len(R)
		R = nextR
		it.RAfter = len(R)
		res.PerIteration = append(res.PerIteration, it)
		res.Iterations++
		if stalled {
			break
		}
	}
	C := dedupe(append(append([]int(nil), S...), R...))
	res.SampleSize = len(C)
	res.FellBack = res.Iterations == 0
	res.Centers = core.GonzalezSubset(ds, C, cfg.K, core.Options{First: 0}).Centers
	res.Radius = assign.Radius(ds, res.Centers)
	return res
}

// distToGathered returns the Euclidean distance from q to the nearest row
// of the gathered set by a brute-force scan (the one-to-many kernel over a
// contiguous copy of S). It shares no search code with Run.
func distToGathered(set *metric.Dataset, q []float64) float64 {
	_, best := metric.NearestInRange(set, 0, set.N, q)
	return math.Sqrt(best)
}

func TestDistToGathered(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{0}, {10}, {3}})
	set := ds.Subset([]int{0, 1})
	if d := distToGathered(set, ds.At(2)); d != 3 {
		t.Fatalf("distToGathered = %v, want 3", d)
	}
	if d := distToGathered(ds.Subset([]int{0}), ds.At(0)); d != 0 {
		t.Fatalf("distToGathered to self = %v", d)
	}
}

// randomDataset returns n UNIF points of dimension dim. With grid set,
// coordinates are small integers instead, so many pairs tie in distance and
// the ≤ pivot rule is exercised at equality.
func randomDataset(n, dim int, seed uint64, grid bool) *metric.Dataset {
	if !grid {
		return dataset.Unif(dataset.UnifConfig{N: n, Dim: dim, Seed: seed}).Points
	}
	ds := metric.NewDataset(n, dim)
	r := rng.New(seed)
	for i := range ds.Data {
		ds.Data[i] = float64(r.Intn(6))
	}
	return ds
}

// assertSameRun fails unless got and want agree bit for bit on every
// reported field of a run.
func assertSameRun(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.SampleSize != want.SampleSize || got.FellBack != want.FellBack {
		t.Fatalf("iterations/sample/fellBack %d/%d/%v, full rescan %d/%d/%v",
			got.Iterations, got.SampleSize, got.FellBack, want.Iterations, want.SampleSize, want.FellBack)
	}
	if len(got.PerIteration) != len(want.PerIteration) {
		t.Fatalf("%d iteration stats, full rescan %d", len(got.PerIteration), len(want.PerIteration))
	}
	for i := range want.PerIteration {
		g, w := got.PerIteration[i], want.PerIteration[i]
		if g != w || math.Float64bits(g.PivotDist) != math.Float64bits(w.PivotDist) {
			t.Fatalf("iteration %d: %+v, full rescan %+v", i, g, w)
		}
	}
	if math.Float64bits(got.Radius) != math.Float64bits(want.Radius) {
		t.Fatalf("radius %v, full rescan %v", got.Radius, want.Radius)
	}
	if !slices.Equal(got.Centers, want.Centers) {
		t.Fatalf("centers %v, full rescan %v", got.Centers, want.Centers)
	}
}

// TestRunMatchesFullRescan: carrying each point's distance to the sample and
// scanning only the newly sampled points changes no decision of Algorithm 2.
func TestRunMatchesFullRescan(t *testing.T) {
	seeds, phis := []uint64{1, 2, 3}, []float64{1, 4, 8}
	if testing.Short() {
		// The race gate runs this under -short: keep every dimension, drop
		// the costliest full rescans.
		seeds, phis = seeds[:1], phis[:2]
	}
	type run struct {
		name     string
		ds       *metric.Dataset
		cfg      Config
		minIters int // iterations the case must reach to test carrying
	}
	// At n = 3000 a φ = 1 run ends after one iteration (its pivot removes
	// almost all of R), so a larger φ = 1 case below carries distances
	// across iterations.
	var runs []run
	for _, dim := range []int{1, 2, 3, 5, 8} {
		for _, phi := range phis {
			for _, seed := range seeds {
				grid := seed%2 == 0
				runs = append(runs, run{
					name: fmt.Sprintf("dim=%d/phi=%g/seed=%d/grid=%v", dim, phi, seed, grid),
					ds:   randomDataset(3000, dim, 100*seed+uint64(dim), grid),
					cfg:  Config{K: 1 + int(seed%2), Phi: phi, Seed: seed},
				})
			}
		}
	}
	runs = append(runs,
		run{"phi=1/n=20000", randomDataset(20000, 2, 102, false), Config{K: 2, Phi: 1, Seed: 1}, 2},
		run{"duplicated", duplicatedLocations(20000, 20), Config{K: 10, Seed: 21}, 1},
		run{"duplicated/k=1", duplicatedLocations(5000, 22), Config{K: 1, Seed: 23}, 1},
		run{"max-iterations=1", randomDataset(5000, 2, 24, false), Config{K: 1, Seed: 25, MaxIterations: 1}, 1},
	)
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Run(tc.ds, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.FellBack || got.Iterations < tc.minIters {
				t.Fatalf("n=%d, k=%d ran %d iterations, want at least max(1, %d)",
					tc.ds.N, tc.cfg.K, got.Iterations, tc.minIters)
			}
			assertSameRun(t, got, fullRescan(tc.ds, tc.cfg))
		})
	}
}

// TestRoundOpsChargeOnlyNewSample: the select and removal rounds charge
// |H|·|ΔS| and |R|·|ΔS| distance evaluations, where ΔS is the points
// sampled in that iteration, not all of S.
func TestRoundOpsChargeOnlyNewSample(t *testing.T) {
	l := randomDataset(20000, 2, 26, false)
	res, err := Run(l, Config{K: 3, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("%d iterations; the test needs S to grow across at least two", res.Iterations)
	}
	ops := map[string]int64{}
	for _, rs := range res.Stats.Rounds {
		ops[rs.Name] = rs.SumOps
	}
	for i, it := range res.PerIteration {
		remove := fmt.Sprintf("eim-%d-remove", i+1)
		if got, want := ops[remove], int64(it.RBefore)*int64(it.Sampled); got != want {
			t.Fatalf("%s: %d ops, want |R|·|ΔS| = %d·%d = %d", remove, got, it.RBefore, it.Sampled, want)
		}
		sel := fmt.Sprintf("eim-%d-select", i+1)
		if got, want := ops[sel], int64(it.HSize)*int64(it.Sampled); got != want {
			t.Fatalf("%s: %d ops, want |H|·|ΔS| = %d·%d = %d", sel, got, it.HSize, it.Sampled, want)
		}
	}
}
