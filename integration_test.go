// Integration tests exercising full pipelines across modules: generators →
// algorithms → evaluation → diagnostics, the §3.2 streaming composition,
// the robust variant against the plain one, and cross-algorithm consistency
// on shared instances.
package kcenter

import (
	"bytes"
	"math"
	"testing"

	"kcenter/internal/assign"
	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/eim"
	"kcenter/internal/mapreduce"
	"kcenter/internal/metric"
	"kcenter/internal/mrg"
	"kcenter/internal/outliers"
	"kcenter/internal/quality"
	"kcenter/internal/rng"
	"kcenter/internal/stream"
)

// TestAllAlgorithmsOnAllGenerators runs every algorithm family over every
// synthetic generator and checks basic solution sanity plus the expected
// quality ordering (everything within its guarantee of the best observed).
func TestAllAlgorithmsOnAllGenerators(t *testing.T) {
	gens := map[string]*metric.Dataset{
		"unif": dataset.Unif(dataset.UnifConfig{N: 8000, Seed: 1}).Points,
		"gau":  dataset.Gau(dataset.GauConfig{N: 8000, KPrime: 8, Seed: 2}).Points,
		"unb":  dataset.Unb(dataset.GauConfig{N: 8000, KPrime: 8, Seed: 3}).Points,
		"kdd":  dataset.KDDLike(dataset.KDDLikeConfig{N: 4000, Seed: 4}).Points,
	}
	const k = 8
	for name, ds := range gens {
		name, ds := name, ds
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gon := core.Gonzalez(ds, k, core.Options{First: 0})
			m, err := mrg.Run(ds, mrg.Config{K: k})
			if err != nil {
				t.Fatal(err)
			}
			e, err := eim.Run(ds, eim.Config{K: k, Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			// Covering radii must all be positive and mutually within the
			// ratio of their guarantees (2 vs 4 vs 10): allow 5x slack of
			// the best to catch egregious regressions without flaking.
			best := math.Min(gon.Radius, math.Min(m.Radius, e.Radius))
			if best <= 0 {
				t.Fatalf("degenerate best radius %v", best)
			}
			for algo, r := range map[string]float64{"GON": gon.Radius, "MRG": m.Radius, "EIM": e.Radius} {
				if r > 5*best {
					t.Fatalf("%s radius %v vs best %v exceeds sanity ratio", algo, r, best)
				}
			}
		})
	}
}

// TestRadiiAgreeAcrossEvaluators cross-checks three independent radius
// implementations: core's sequential scan, assign's parallel evaluator over
// center indices, and stream.Cover's pruned scan over center coordinates.
func TestRadiiAgreeAcrossEvaluators(t *testing.T) {
	l := dataset.Gau(dataset.GauConfig{N: 5000, KPrime: 6, Seed: 7})
	res := core.Gonzalez(l.Points, 6, core.Options{First: 0})
	seq, _ := core.CoveringRadius(l.Points, res.Centers)
	par := assign.Radius(l.Points, res.Centers)
	cov := stream.Cover(l.Points, l.Points.Subset(res.Centers), nil)
	if math.Abs(seq-par) > 1e-9*(1+seq) || math.Abs(seq-cov) > 1e-9*(1+seq) {
		t.Fatalf("evaluator disagreement: %v / %v / %v", seq, par, cov)
	}
	if math.Abs(seq-res.Radius) > 1e-9*(1+seq) {
		t.Fatalf("Gonzalez self-reported radius %v vs evaluated %v", res.Radius, seq)
	}
}

// TestGuaranteeLadder verifies, on one shared instance with a computable
// optimum, that every algorithm respects its own guarantee: GON within
// 2·OPT, MRG within 4·OPT, EIM within 10·OPT, and the doubling sketch the
// server runs (stream.Summary) within 8·OPT, both its realized cover and
// its certified bound.
func TestGuaranteeLadder(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 12, Seed: 8})
	ds := l.Points
	const k = 3
	opt := core.ExactSmall(ds, k)
	if opt.Radius <= 0 {
		t.Skip("degenerate optimum")
	}
	check := func(name string, radius, factor float64) {
		t.Helper()
		if radius > factor*opt.Radius+1e-9 {
			t.Fatalf("%s radius %v > %g·OPT = %v", name, radius, factor, factor*opt.Radius)
		}
	}
	check("GON", core.Gonzalez(ds, k, core.Options{}).Radius, 2)
	mres, err := mrg.Run(ds, mrg.Config{K: k, Cluster: mapreduce.Config{Machines: 3, Capacity: 12}})
	if err != nil {
		t.Fatal(err)
	}
	check("MRG", mres.Radius, 4)
	eres, err := eim.Run(ds, eim.Config{K: k, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	check("EIM", eres.Radius, 10)
	s := stream.NewSummary(k, stream.Options{})
	for i := 0; i < ds.N; i++ {
		s.Push(ds.At(i))
	}
	check("stream cover", stream.Cover(ds, s.Centers(), nil), 8)
	check("stream bound", s.Bound(), 8)
}

// TestStreamingFeedsMRG exercises the §3.2 external-memory composition end
// to end: shard → streaming summaries → MRG over the union's coordinates.
func TestStreamingFeedsMRG(t *testing.T) {
	l := dataset.Gau(dataset.GauConfig{N: 20000, KPrime: 10, Seed: 10})
	const k, shards = 10, 4
	union := metric.NewDataset(0, l.Points.Dim)
	per := l.Points.N / shards
	for sh := 0; sh < shards; sh++ {
		s := stream.NewSummary(4*k, stream.Options{}) // oversampled summaries
		for i := sh * per; i < (sh+1)*per; i++ {
			s.Push(l.Points.At(i))
		}
		c := s.Centers()
		for i := 0; i < c.N; i++ {
			union.Append(c.At(i))
		}
	}
	res, err := mrg.Run(union, mrg.Config{K: k, Cluster: mapreduce.Config{Machines: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the final centers against the ORIGINAL data.
	if r := stream.Cover(l.Points, union.Subset(res.Centers), nil); r > 20 {
		t.Fatalf("stream→MRG composition radius %v on tight clusters", r)
	}
}

// TestRobustVsPlainPipeline reproduces the §8.1 outlier-sensitivity story as
// an executable: plant outliers, watch plain k-center chase them and the
// robust variant ignore them, confirmed by the quality diagnostics.
func TestRobustVsPlainPipeline(t *testing.T) {
	l := dataset.Gau(dataset.GauConfig{N: 4000, KPrime: 5, Seed: 11})
	ds := l.Points
	const nOut = 8
	for i := 0; i < nOut; i++ {
		ds.Append([]float64{5000 + float64(100*i), 5000})
	}
	plain := core.Gonzalez(ds, 5, core.Options{First: 0})
	robust, err := outliers.Distributed(ds, outliers.DistributedConfig{
		K: 5, Z: nOut, Cluster: mapreduce.Config{Machines: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Radius < 10*robust.Radius {
		t.Fatalf("outliers should separate plain (%v) from robust (%v)", plain.Radius, robust.Radius)
	}
	// The §8.1 mechanism: farthest-first spends centers on the outliers
	// (every outlier lands in a tiny cluster around a wasted center), while
	// the robust centers all stay in the data mass.
	wasted := 0
	for _, c := range plain.Centers {
		if ds.At(c)[0] > 4000 {
			wasted++
		}
	}
	if wasted == 0 {
		t.Fatal("expected plain GON to spend centers on the planted outliers")
	}
	for _, c := range robust.Centers {
		if ds.At(c)[0] > 4000 {
			t.Fatalf("robust variant placed a center on an outlier: %v", ds.At(c))
		}
	}
	// Diagnostics make the waste visible: the plain solution has tiny
	// clusters (the outlier groups) next to huge ones.
	ev := assign.Evaluate(ds, plain.Centers, 0)
	sum, err := quality.Summarize(ev.Dist, ev.Assignment, len(plain.Centers))
	if err != nil {
		t.Fatal(err)
	}
	if sum.MinClusterSize > nOut {
		t.Fatalf("expected a tiny outlier cluster, min size %d", sum.MinClusterSize)
	}
}

// TestCSVRoundTripThroughFacade loads generated data through the public CSV
// path and verifies algorithms see identical geometry.
func TestCSVRoundTripThroughFacade(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 500, Seed: 14})
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, l.Points); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	direct := core.Gonzalez(l.Points, 5, core.Options{First: 0})
	viaCSV, err := Gonzalez(d2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.Radius-viaCSV.Radius) > 1e-9*(1+direct.Radius) {
		t.Fatalf("CSV round trip changed the radius: %v vs %v", direct.Radius, viaCSV.Radius)
	}
}

// TestDeterministicEndToEnd locks the full deterministic pipeline: same
// seeds, same centers, across every randomized component at once. MRG runs
// on a row-permuted copy, so its partition is a shuffled one.
func TestDeterministicEndToEnd(t *testing.T) {
	run := func() (float64, float64) {
		l := dataset.Gau(dataset.GauConfig{N: 10000, KPrime: 10, Seed: 15})
		shuffled := l.Points.Subset(rng.New(16).Perm(l.Points.N))
		m, err := mrg.Run(shuffled, mrg.Config{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		e, err := eim.Run(l.Points, eim.Config{K: 10, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		return m.Radius, e.Radius
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("pipeline not reproducible: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}
}
