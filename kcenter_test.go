package kcenter

import (
	"math"
	"strings"
	"testing"

	"kcenter/internal/dataset"
)

func grid(t *testing.T) *Dataset {
	t.Helper()
	var pts [][]float64
	for x := 0; x < 20; x++ {
		for y := 0; y < 20; y++ {
			pts = append(pts, []float64{float64(x), float64(y)})
		}
	}
	d, err := NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil); err == nil {
		t.Fatal("empty input should fail")
	}
	if _, err := NewDataset([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged input should fail")
	}
	d, err := NewDataset([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Dim() != 2 || d.At(1)[0] != 3 {
		t.Fatalf("%d x %d", d.Len(), d.Dim())
	}
}

func TestGonzalezFacade(t *testing.T) {
	d := grid(t)
	res, err := Gonzalez(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 4 || res.Radius <= 0 {
		t.Fatalf("%+v", res)
	}
	if res.ApproxFactor != 2 {
		t.Fatalf("factor %v", res.ApproxFactor)
	}
	if len(res.Assignment) != d.Len() {
		t.Fatal("assignment missing")
	}
	for _, a := range res.Assignment {
		if a < 0 || a >= 4 {
			t.Fatalf("assignment %d out of range", a)
		}
	}
}

func TestMRGFacade(t *testing.T) {
	d := Uniform(5000, 1)
	res, err := MRG(d, 10, MRGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 || res.ApproxFactor != 4 {
		t.Fatalf("rounds %d factor %v", res.Rounds, res.ApproxFactor)
	}
	if res.SimulatedSeconds <= 0 {
		t.Fatal("no simulated time")
	}
	want, err := Radius(d, res.Centers)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Radius-want) > 1e-9*(1+want) {
		t.Fatalf("radius %v vs evaluated %v", res.Radius, want)
	}
}

func TestEIMFacade(t *testing.T) {
	d := Uniform(30000, 3)
	res, err := EIM(d, 5, EIMOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.ApproxFactor != 10 {
		t.Fatalf("factor %v, want 10 for default phi", res.ApproxFactor)
	}
	if res.Rounds < 4 {
		t.Fatalf("rounds %d", res.Rounds)
	}
	low, err := EIM(d, 5, EIMOptions{Seed: 4, Phi: 1})
	if err != nil {
		t.Fatal(err)
	}
	if low.ApproxFactor != 0 {
		t.Fatalf("phi=1 factor %v, want 0 (no guarantee)", low.ApproxFactor)
	}
}

func TestAlgorithmsAgreeOnClusteredData(t *testing.T) {
	d := Clustered(20000, 10, 5)
	gon, err := Gonzalez(d, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MRG(d, 10, MRGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := EIM(d, 10, EIMOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// All three must isolate the 10 tight clusters: radii near the cluster
	// radius (~1), far below the inter-cluster distances (~100).
	for name, r := range map[string]float64{"GON": gon.Radius, "MRG": m.Radius, "EIM": e.Radius} {
		if r > 10 {
			t.Fatalf("%s radius %v failed to separate clusters", name, r)
		}
	}
}

func TestFacadeErrors(t *testing.T) {
	d := grid(t)
	if _, err := Gonzalez(d, 0); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := Gonzalez(nil, 3); err == nil {
		t.Fatal("nil dataset should fail")
	}
	if _, err := MRG(nil, 3, MRGOptions{}); err == nil {
		t.Fatal("nil dataset should fail")
	}
	if _, err := EIM(nil, 3, EIMOptions{}); err == nil {
		t.Fatal("nil dataset should fail")
	}
	if _, err := Radius(d, nil); err == nil {
		t.Fatal("no centers should fail")
	}
	if _, err := Radius(d, []int{-1}); err == nil {
		t.Fatal("bad center index should fail")
	}
	if _, err := Radius(d, []int{d.Len()}); err == nil {
		t.Fatal("out-of-range center should fail")
	}
}

func TestReadCSVFacade(t *testing.T) {
	d, err := ReadCSV(strings.NewReader("1,2\n3,4\n5,6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 || d.Dim() != 2 {
		t.Fatalf("%d x %d", d.Len(), d.Dim())
	}
	res, err := Gonzalez(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 2 {
		t.Fatalf("%+v", res)
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty CSV should fail")
	}
}

func TestGeneratorsFacade(t *testing.T) {
	u := Uniform(2000, 9)
	if u.Len() != 2000 || u.Dim() != 2 {
		t.Fatalf("%d x %d", u.Len(), u.Dim())
	}
	c := Clustered(2000, 5, 9)
	if c.Len() != 2000 {
		t.Fatalf("%d", c.Len())
	}
	res, err := Gonzalez(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius > 10 {
		t.Fatalf("clustered generator radius %v", res.Radius)
	}
}

// TestStreamWithin8xGonzalez is the streaming acceptance gate: on every
// harness dataset family, NewStream → Push → Finish must return centers
// whose realized covering radius is within 8× of core.Gonzalez's batch
// radius. The run is fully deterministic: fixed seeds, a single producer and
// a fixed shard count make the round-robin routing, every shard summary and
// the final merge reproducible. For one shard the 8× band is certified
// (Bound ≤ 8·OPT ≤ 8·GON); for four shards it is the empirical reading of
// the 10·OPT certificate, locked in by determinism.
func TestStreamWithin8xGonzalez(t *testing.T) {
	datasets := []struct {
		name string
		ds   *Dataset
	}{
		{"unif", Uniform(20000, 1)},
		{"gau", Clustered(20000, 25, 2)},
		{"unb", unbDataset(20000, 25, 3)},
		{"poker", pokerDataset()},
		{"kdd", kddDataset(20000, 4)},
	}
	const k = 10
	for _, d := range datasets {
		gon, err := Gonzalez(d.ds, k)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		for _, shards := range []int{1, 4} {
			st, err := NewStream(k, StreamOptions{Shards: shards})
			if err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			for i := 0; i < d.ds.Len(); i++ {
				if err := st.Push(d.ds.At(i)); err != nil {
					t.Fatalf("%s: %v", d.name, err)
				}
			}
			res, err := st.Finish()
			if err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			if res.Ingested != int64(d.ds.Len()) {
				t.Fatalf("%s shards=%d: ingested %d, want %d", d.name, shards, res.Ingested, d.ds.Len())
			}
			if len(res.Centers) == 0 || len(res.Centers) > k {
				t.Fatalf("%s shards=%d: %d centers", d.name, shards, len(res.Centers))
			}
			realized, err := RadiusPoints(d.ds, res.Centers)
			if err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			if realized > res.Radius+1e-9 {
				t.Fatalf("%s shards=%d: realized %g escapes certified bound %g",
					d.name, shards, realized, res.Radius)
			}
			if realized > 8*gon.Radius {
				t.Fatalf("%s shards=%d: streaming radius %g > 8·GON = %g",
					d.name, shards, realized, 8*gon.Radius)
			}
			if res.LowerBound > gon.Radius+1e-9 {
				t.Fatalf("%s shards=%d: lower bound %g > GON %g",
					d.name, shards, res.LowerBound, gon.Radius)
			}
		}
	}
}

func TestStreamFacadeValidation(t *testing.T) {
	if _, err := NewStream(0, StreamOptions{}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := NewStream(3, StreamOptions{Metric: "hamming"}); err == nil {
		t.Fatal("unknown metric should fail")
	}
	st, err := NewStream(2, StreamOptions{Metric: "manhattan"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]float64{{0, 0}, {1, 1}, {5, 5}, {6, 6}} {
		if err := st.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) > 2 || res.ApproxFactor != 8 {
		t.Fatalf("%+v", res)
	}
	if err := st.Push([]float64{9, 9}); err == nil {
		t.Fatal("Push after Finish should fail")
	}
	if _, err := st.Finish(); err == nil {
		t.Fatal("double Finish should fail")
	}
}

// TestStreamRejectsNonFinite: a NaN or ±Inf coordinate has no distance to
// anything, so Push rejects the point with an error naming it and the
// coordinate, before the point can pin the stream's dimension, and the
// clustering is built from the finite points alone.
func TestStreamRejectsNonFinite(t *testing.T) {
	st, err := NewStream(2, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push([]float64{math.Inf(1)}); err == nil {
		t.Fatal("Push of +Inf should fail")
	}
	for _, p := range [][]float64{{0, 0}, {1, 1}, {math.NaN(), 2}, {5, 5}} {
		err := st.Push(p)
		if !math.IsNaN(p[0]) {
			if err != nil {
				t.Fatalf("Push(%v): %v", p, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "[NaN 2]") || !strings.Contains(err.Error(), "coordinate 0") {
			t.Fatalf("Push(%v): got %v, want an error naming the point and coordinate 0", p, err)
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != 3 {
		t.Fatalf("ingested %d points, want the 3 finite ones", res.Ingested)
	}
	for _, c := range res.Centers {
		for _, v := range c {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite center %v in %v", c, res.Centers)
			}
		}
	}
	if math.IsNaN(res.Radius) || res.Radius > 8*math.Sqrt2 {
		t.Fatalf("radius %v, want within 8x of the optimum %v", res.Radius, math.Sqrt2)
	}
}

func TestRadiusPointsValidation(t *testing.T) {
	d := grid(t)
	if _, err := RadiusPoints(nil, [][]float64{{0, 0}}); err == nil {
		t.Fatal("nil dataset should fail")
	}
	if _, err := RadiusPoints(d, nil); err == nil {
		t.Fatal("no centers should fail")
	}
	if _, err := RadiusPoints(d, [][]float64{{0, 0, 0}}); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	// A center on every corner of the 20×20 grid: the worst points are the
	// central ones like (9,9), at distance hypot(9,9) from their corner.
	got, err := RadiusPoints(d, [][]float64{{0, 0}, {19, 0}, {0, 19}, {19, 19}})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Hypot(9, 9)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("radius %g, want %g", got, want)
	}
}

// Helpers exposing the remaining harness dataset families (unb, poker, kdd)
// to facade-level tests; the public constructors cover only unif and gau.
func unbDataset(n, kPrime int, seed uint64) *Dataset {
	return &Dataset{m: dataset.Unb(dataset.GauConfig{N: n, KPrime: kPrime, Seed: seed}).Points}
}

func pokerDataset() *Dataset {
	return &Dataset{m: dataset.PokerLike(5).Points}
}

func kddDataset(n int, seed uint64) *Dataset {
	return &Dataset{m: dataset.KDDLike(dataset.KDDLikeConfig{N: n, Seed: seed}).Points}
}
