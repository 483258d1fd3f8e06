package core

import (
	"math"
	"testing"

	"kcenter/internal/dataset"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

func randomDataset(t testing.TB, r *rng.Source, n, dim int) *metric.Dataset {
	t.Helper()
	ds := metric.NewDataset(n, dim)
	for i := range ds.Data {
		ds.Data[i] = r.Float64Range(-50, 50)
	}
	return ds
}

func TestGonzalezBasicShape(t *testing.T) {
	r := rng.New(1)
	ds := randomDataset(t, r, 200, 2)
	res := Gonzalez(ds, 5, Options{})
	if len(res.Centers) != 5 {
		t.Fatalf("got %d centers", len(res.Centers))
	}
	seen := map[int]bool{}
	for _, c := range res.Centers {
		if c < 0 || c >= ds.N || seen[c] {
			t.Fatalf("invalid/duplicate center %d", c)
		}
		seen[c] = true
	}
	if res.Radius <= 0 {
		t.Fatalf("radius %v", res.Radius)
	}
	if res.DistEvals != int64(5*ds.N) {
		t.Fatalf("DistEvals = %d, want %d (k·n)", res.DistEvals, 5*ds.N)
	}
}

func TestGonzalezRadiusMatchesCoveringRadius(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		ds := randomDataset(t, r, 50+r.Intn(200), 1+r.Intn(4))
		k := 1 + r.Intn(8)
		res := Gonzalez(ds, k, Options{})
		want, _ := CoveringRadius(ds, res.Centers)
		if math.Abs(res.Radius-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: Gonzalez radius %v != covering radius %v", trial, res.Radius, want)
		}
	}
}

func TestGonzalezMinDistConsistent(t *testing.T) {
	r := rng.New(3)
	ds := randomDataset(t, r, 120, 3)
	res := Gonzalez(ds, 7, Options{})
	for i := 0; i < ds.N; i++ {
		best := math.Inf(1)
		for _, c := range res.Centers {
			if d := ds.Dist(i, c); d < best {
				best = d
			}
		}
		if math.Abs(res.MinDist[i]-best) > 1e-9*(1+best) {
			t.Fatalf("MinDist[%d] = %v, want %v", i, res.MinDist[i], best)
		}
	}
}

// TestGonzalezTwoApprox is the headline property test: on instances small
// enough for the exact oracle, GON's radius never exceeds 2·OPT.
func TestGonzalezTwoApprox(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 60; trial++ {
		n := 6 + r.Intn(8) // 6..13
		k := 1 + r.Intn(3) // 1..3
		ds := randomDataset(t, r, n, 2)
		opt := ExactSmall(ds, k)
		// Try every possible first center: the guarantee must hold for all.
		for first := 0; first < n; first++ {
			got := Gonzalez(ds, k, Options{First: first})
			if got.Radius > 2*opt.Radius+1e-9 {
				t.Fatalf("trial %d first=%d: GON radius %v > 2·OPT = %v", trial, first, got.Radius, 2*opt.Radius)
			}
		}
	}
}

func TestGonzalezOnClusteredDataFindsClusters(t *testing.T) {
	// With k = k′ well-separated Gaussian clusters, GON must place one
	// center per cluster, achieving a radius near the cluster radius and far
	// below the inter-cluster spacing.
	l := dataset.Gau(dataset.GauConfig{N: 5000, KPrime: 8, Seed: 5})
	res := Gonzalez(l.Points, 8, Options{})
	if res.Radius > 5 {
		t.Fatalf("radius %v: GON failed to separate sigma=0.1 clusters on side-100 field", res.Radius)
	}
	clusters := map[int]bool{}
	for _, c := range res.Centers {
		clusters[l.Labels[c]] = true
	}
	if len(clusters) != 8 {
		t.Fatalf("centers cover %d of 8 inherent clusters", len(clusters))
	}
}

func TestGonzalezKGreaterThanN(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{0}, {1}, {2}})
	res := Gonzalez(ds, 10, Options{})
	if len(res.Centers) != 3 {
		t.Fatalf("got %d centers, want all 3 points", len(res.Centers))
	}
	if res.Radius != 0 {
		t.Fatalf("radius %v, want 0", res.Radius)
	}
}

func TestGonzalezDuplicatePoints(t *testing.T) {
	// All points identical: one center suffices, radius 0, no duplicate
	// centers returned even for k > 1, nor for k > n.
	for _, c := range []struct {
		n, k int
		p    []float64
	}{
		{5, 3, []float64{3, 3}},
		{3, 50, []float64{1}},
	} {
		pts := make([][]float64, c.n)
		for i := range pts {
			pts[i] = c.p
		}
		ds, _ := metric.FromPoints(pts)
		res := Gonzalez(ds, c.k, Options{})
		if res.Radius != 0 {
			t.Fatalf("n=%d k=%d: radius %v", c.n, c.k, res.Radius)
		}
		if len(res.Centers) == 0 || len(res.Centers) > min(c.n, c.k) {
			t.Fatalf("n=%d k=%d: centers %v", c.n, c.k, res.Centers)
		}
	}
}

func TestGonzalezSingleton(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{42}})
	res := Gonzalez(ds, 1, Options{})
	if len(res.Centers) != 1 || res.Centers[0] != 0 || res.Radius != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestGonzalezFirstCenterOptions(t *testing.T) {
	r := rng.New(6)
	ds := randomDataset(t, r, 100, 2)
	a := Gonzalez(ds, 4, Options{First: 17})
	if a.Centers[0] != 17 {
		t.Fatalf("first center %d, want 17", a.Centers[0])
	}
	first := rng.New(9).Intn(ds.N)
	b := Gonzalez(ds, 4, Options{First: first})
	c := Gonzalez(ds, 4, Options{First: first})
	if b.Centers[0] != first {
		t.Fatalf("first center %d, want %d", b.Centers[0], first)
	}
	for i := range b.Centers {
		if b.Centers[i] != c.Centers[i] {
			t.Fatal("same first center must give same traversal")
		}
	}
	d := Gonzalez(ds, 4, Options{})
	if d.Centers[0] != 0 {
		t.Fatalf("zero Options should start at point 0, got %d", d.Centers[0])
	}
}

func TestGonzalezPanics(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{1}})
	for name, fn := range map[string]func(){
		"k=0":          func() { Gonzalez(ds, 0, Options{}) },
		"empty":        func() { Gonzalez(metric.NewDataset(0, 1), 1, Options{}) },
		"out-of-range": func() { Gonzalez(ds, 1, Options{First: 5}) },
		"negative":     func() { Gonzalez(ds, 1, Options{First: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGonzalezSubsetMatchesFullWhenIdentity(t *testing.T) {
	r := rng.New(7)
	ds := randomDataset(t, r, 150, 2)
	idx := make([]int, ds.N)
	for i := range idx {
		idx[i] = i
	}
	a := Gonzalez(ds, 6, Options{})
	b := GonzalezSubset(ds, idx, 6, Options{})
	for i := range a.Centers {
		if a.Centers[i] != b.Centers[i] {
			t.Fatalf("center %d differs: %d vs %d", i, a.Centers[i], b.Centers[i])
		}
	}
	if math.Abs(a.Radius-b.Radius) > 1e-12 {
		t.Fatalf("radius %v vs %v", a.Radius, b.Radius)
	}
}

func TestGonzalezSubsetReturnsDatasetIndices(t *testing.T) {
	r := rng.New(8)
	ds := randomDataset(t, r, 100, 2)
	idx := []int{90, 91, 92, 93, 94}
	res := GonzalezSubset(ds, idx, 2, Options{})
	for _, c := range res.Centers {
		if c < 90 || c > 94 {
			t.Fatalf("center %d not from subset", c)
		}
	}
	// The radius must be the covering radius of the SUBSET, not the dataset.
	worst := 0.0
	for _, i := range idx {
		best := math.Inf(1)
		for _, c := range res.Centers {
			if d := ds.Dist(i, c); d < best {
				best = d
			}
		}
		if best > worst {
			worst = best
		}
	}
	if math.Abs(res.Radius-worst) > 1e-9 {
		t.Fatalf("subset radius %v, want %v", res.Radius, worst)
	}
}

func TestGonzalezSubsetPanics(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{1}, {2}})
	for name, fn := range map[string]func(){
		"k=0":   func() { GonzalezSubset(ds, []int{0}, 0, Options{}) },
		"empty": func() { GonzalezSubset(ds, nil, 1, Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCoveringRadiusKnownValues(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{0}, {1}, {2}, {10}})
	r, evals := CoveringRadius(ds, []int{0})
	if r != 10 {
		t.Fatalf("radius %v, want 10", r)
	}
	if evals != 4 {
		t.Fatalf("evals %d, want 4", evals)
	}
	r, _ = CoveringRadius(ds, []int{1, 3})
	if r != 1 {
		t.Fatalf("radius %v, want 1", r)
	}
}

func TestCoveringRadiusPanicsOnEmpty(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CoveringRadius(ds, nil)
}

func TestExactSmallOptimality(t *testing.T) {
	// Hand-verifiable instance: points on a line. Centers are data points
	// (discrete k-center, as in the paper), so covering {0,1,2,3} with one
	// center costs exactly 2 (center at 1 or 2) and {10,11} costs 1.
	ds, _ := metric.FromPoints([][]float64{{0}, {1}, {2}, {3}, {10}, {11}})
	res := ExactSmall(ds, 2)
	if math.Abs(res.Radius-2) > 1e-12 {
		t.Fatalf("exact radius %v, want 2", res.Radius)
	}
}

func TestExactSmallIsLowerBoundForGonzalez(t *testing.T) {
	r := rng.New(10)
	for trial := 0; trial < 40; trial++ {
		n := 5 + r.Intn(9)
		k := 1 + r.Intn(3)
		ds := randomDataset(t, r, n, 2)
		opt := ExactSmall(ds, k)
		gon := Gonzalez(ds, k, Options{})
		if gon.Radius < opt.Radius-1e-9 {
			t.Fatalf("GON radius %v beat the exact optimum %v", gon.Radius, opt.Radius)
		}
	}
}

func TestExactSmallDegenerate(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{0}, {5}})
	res := ExactSmall(ds, 5)
	if res.Radius != 0 || len(res.Centers) != 2 {
		t.Fatalf("%+v", res)
	}
}

func TestExactSmallGuards(t *testing.T) {
	big := metric.NewDataset(100, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on oversized search space")
		}
	}()
	ExactSmall(big, 20)
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{{5, 2, 10}, {10, 3, 120}, {12, 4, 495}, {0, 0, 1}, {3, 5, 0}, {7, 0, 1}}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Fatalf("C(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	if got := binomial(200, 100); got != math.MaxInt64 {
		t.Fatalf("C(200,100) should saturate, got %d", got)
	}
}

func BenchmarkGonzalez(b *testing.B) {
	for _, size := range []struct{ n, k int }{{10000, 10}, {10000, 100}, {100000, 10}} {
		b.Run(benchName(size.n, size.k), func(b *testing.B) {
			l := dataset.Unif(dataset.UnifConfig{N: size.n, Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gonzalez(l.Points, size.k, Options{})
			}
		})
	}
}

func benchName(n, k int) string {
	return "n=" + itoa(n) + "/k=" + itoa(k)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
