package stream

import (
	"math"
	"testing"
	"time"

	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// pushAll feeds every point of ds into s in index order.
func pushAll(s *Summary, ds *metric.Dataset) {
	for i := 0; i < ds.N; i++ {
		s.Push(ds.At(i))
	}
}

// randomDataset draws n points of dimension dim uniformly in [-100, 100)^dim.
func randomDataset(n, dim int, seed uint64) *metric.Dataset {
	r := rng.New(seed)
	ds := metric.NewDataset(n, dim)
	for i := range ds.Data {
		ds.Data[i] = r.Float64Range(-100, 100)
	}
	return ds
}

func TestSummaryEdgeCases(t *testing.T) {
	tests := []struct {
		name    string
		k       int
		points  [][]float64
		centers int  // expected retained centers
		exact   bool // stream fits in k centers: coverage bound must be 0
	}{
		{
			name:    "fewer points than k",
			k:       10,
			points:  [][]float64{{0, 0}, {1, 0}, {0, 1}},
			centers: 3,
			exact:   true, // fill phase: coverage is exact
		},
		{
			name:    "exactly k distinct points",
			k:       3,
			points:  [][]float64{{0, 0}, {5, 0}, {0, 5}},
			centers: 3,
			exact:   true,
		},
		{
			name:    "all duplicates collapse to one center",
			k:       2,
			points:  [][]float64{{7, 7}, {7, 7}, {7, 7}, {7, 7}, {7, 7}},
			centers: 1,
			exact:   true,
		},
		{
			name: "duplicates interleaved with distinct points",
			k:    4,
			points: [][]float64{
				{0, 0}, {1, 1}, {0, 0}, {2, 2}, {1, 1}, {3, 3}, {0, 0},
			},
			centers: 4,
			exact:   true,
		},
		{
			name:    "k=1 collapses any stream to one center",
			k:       1,
			points:  [][]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}},
			centers: 1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := NewSummary(tt.k, Options{})
			for _, p := range tt.points {
				s.Push(p)
			}
			if s.Count() != tt.centers {
				t.Fatalf("centers = %d, want %d", s.Count(), tt.centers)
			}
			if s.Count() > tt.k {
				t.Fatalf("center count %d exceeds k = %d", s.Count(), tt.k)
			}
			if s.N() != int64(len(tt.points)) {
				t.Fatalf("ingested = %d, want %d", s.N(), len(tt.points))
			}
			if tt.exact && s.Bound() != 0 {
				t.Fatalf("bound = %g, want exact coverage 0", s.Bound())
			}
			// Every pushed point must lie within the certified bound of a
			// retained center.
			in, err := metric.FromPoints(tt.points)
			if err != nil {
				t.Fatal(err)
			}
			if got := Cover(in, s.Centers(), nil); got > s.Bound()+1e-12 {
				t.Fatalf("realized cover %g escapes certified bound %g", got, s.Bound())
			}
		})
	}
}

// TestSummaryCertificates checks the doubling algorithm's bracketing on
// random data: LowerBound ≤ OPT ≤ realized ≤ Bound ≤ 8·OPT, using Gonzalez
// to bracket OPT (OPT ≤ GON ≤ 2·OPT).
func TestSummaryCertificates(t *testing.T) {
	for _, n := range []int{50, 500, 5000} {
		for _, k := range []int{1, 3, 10} {
			ds := randomDataset(n, 3, uint64(n*31+k))
			s := NewSummary(k, Options{})
			pushAll(s, ds)
			if s.Count() > k {
				t.Fatalf("n=%d k=%d: %d centers", n, k, s.Count())
			}
			realized := Cover(ds, s.Centers(), nil)
			if realized > s.Bound()+1e-9 {
				t.Fatalf("n=%d k=%d: realized %g > bound %g", n, k, realized, s.Bound())
			}
			gon := core.Gonzalez(ds, k, core.Options{First: 0})
			// Bound ≤ 8·OPT and GON ≥ OPT, so Bound ≤ 8·GON is certified.
			if s.Bound() > 8*gon.Radius+1e-9 {
				t.Fatalf("n=%d k=%d: bound %g > 8·GON %g", n, k, s.Bound(), 8*gon.Radius)
			}
			// LowerBound ≤ OPT ≤ GON is certified.
			if s.LowerBound() > gon.Radius+1e-9 {
				t.Fatalf("n=%d k=%d: lower bound %g > GON %g", n, k, s.LowerBound(), gon.Radius)
			}
			// The realized radius of any k centers is at least OPT ≥ r/2.
			if realized+1e-9 < s.LowerBound() {
				t.Fatalf("n=%d k=%d: realized %g below lower bound %g", n, k, realized, s.LowerBound())
			}
		}
	}
}

// TestSummaryPermutationRobustness feeds the same dataset in 10 shuffled
// orders and asserts every order stays within the guarantee band relative to
// batch Gonzalez, and that the band's spread is what doubling predicts (the
// realized radii vary, but never outside [LowerBound, 8·GON]).
func TestSummaryPermutationRobustness(t *testing.T) {
	const n, k = 2000, 8
	ds := randomDataset(n, 2, 99)
	gon := core.Gonzalez(ds, k, core.Options{First: 0})
	r := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		perm := r.Perm(n)
		s := NewSummary(k, Options{})
		for _, i := range perm {
			s.Push(ds.At(i))
		}
		if s.Count() > k {
			t.Fatalf("trial %d: %d centers", trial, s.Count())
		}
		realized := Cover(ds, s.Centers(), nil)
		if realized > 8*gon.Radius+1e-9 {
			t.Fatalf("trial %d: realized %g outside 8·GON = %g", trial, realized, 8*gon.Radius)
		}
		if realized > s.Bound()+1e-9 {
			t.Fatalf("trial %d: realized %g escapes own bound %g", trial, realized, s.Bound())
		}
		if s.LowerBound() > gon.Radius+1e-9 {
			t.Fatalf("trial %d: lower bound %g > GON %g", trial, s.LowerBound(), gon.Radius)
		}
	}
}

// TestSummaryClusteredData checks the streaming radius on the paper's GAU
// family, where tight clusters make the objective easy: streaming should
// land well inside its worst-case factor.
func TestSummaryClusteredData(t *testing.T) {
	l := dataset.Gau(dataset.GauConfig{N: 10000, KPrime: 10, Seed: 3})
	gon := core.Gonzalez(l.Points, 10, core.Options{First: 0})
	s := NewSummary(10, Options{})
	pushAll(s, l.Points)
	realized := Cover(l.Points, s.Centers(), nil)
	if realized > 8*gon.Radius {
		t.Fatalf("realized %g > 8·GON %g", realized, 8*gon.Radius)
	}
}

// TestShardedSingleShardMatchesSummary: with one shard and one producer the
// sharded path must reproduce the sequential Summary exactly.
func TestShardedSingleShardMatchesSummary(t *testing.T) {
	const n, k = 3000, 6
	ds := randomDataset(n, 2, 11)
	seq := NewSummary(k, Options{})
	pushAll(seq, ds)

	sh, err := NewSharded(ShardedConfig{K: k, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.N; i++ {
		if err := sh.Push(ds.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sh.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != int64(n) {
		t.Fatalf("ingested %d, want %d", res.Ingested, n)
	}
	if res.UnionSize != seq.Count() || res.Centers.N != seq.Count() {
		t.Fatalf("sharded kept %d (union %d), sequential kept %d", res.Centers.N, res.UnionSize, seq.Count())
	}
	want := seq.Centers()
	for i := 0; i < want.N; i++ {
		for j := 0; j < want.Dim; j++ {
			if res.Centers.At(i)[j] != want.At(i)[j] {
				t.Fatalf("center %d differs: %v vs %v", i, res.Centers.At(i), want.At(i))
			}
		}
	}
	if res.Bound != seq.Bound() {
		t.Fatalf("bound %g, want %g", res.Bound, seq.Bound())
	}
	if res.MergeRadius != 0 {
		t.Fatalf("single shard needs no recluster, got merge radius %g", res.MergeRadius)
	}
}

// TestShardedSnapshotMatchesSummary: once a single-shard ingester has
// drained everything pushed so far, Snapshot must expose exactly the
// sequential Summary's centers — the mid-stream view is the doubling
// algorithm's state, not an approximation of it.
func TestShardedSnapshotMatchesSummary(t *testing.T) {
	const n, k = 2500, 5
	ds := randomDataset(n, 2, 77)
	seq := NewSummary(k, Options{})
	pushAll(seq, ds)

	sh, err := NewSharded(ShardedConfig{K: k, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.N; i++ {
		if err := sh.Push(ds.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The shard goroutine drains asynchronously; poll gently until the
	// snapshot reflects every push, failing promptly if it never does.
	var snap *Result
	for attempt := 0; ; attempt++ {
		snap, err = sh.Snapshot()
		if err == nil && snap.Ingested == int64(n) {
			break
		}
		if attempt > 5000 {
			t.Fatalf("snapshot never drained: err=%v snap=%+v", err, snap)
		}
		time.Sleep(time.Millisecond)
	}
	if snap.Centers.N != seq.Count() {
		t.Fatalf("snapshot kept %d centers, sequential kept %d", snap.Centers.N, seq.Count())
	}
	want := seq.Centers()
	for i := 0; i < want.N; i++ {
		for j := 0; j < want.Dim; j++ {
			if snap.Centers.At(i)[j] != want.At(i)[j] {
				t.Fatalf("snapshot center %d differs: %v vs %v", i, snap.Centers.At(i), want.At(i))
			}
		}
	}
	if snap.Bound != seq.Bound() {
		t.Fatalf("snapshot bound %g, want %g", snap.Bound, seq.Bound())
	}
	if _, err := sh.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedManyShardsGuarantee: many shards must agree with a single shard
// up to the sharded guarantee band and stay within 10·GON of the batch
// baseline.
func TestShardedManyShardsGuarantee(t *testing.T) {
	const n, k = 6000, 8
	ds := randomDataset(n, 3, 21)
	gon := core.Gonzalez(ds, k, core.Options{First: 0})
	for _, shards := range []int{1, 2, 4, 8, 16} {
		sh, err := NewSharded(ShardedConfig{K: k, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ds.N; i++ {
			if err := sh.Push(ds.At(i)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sh.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if res.Centers.N > k {
			t.Fatalf("shards=%d: %d centers", shards, res.Centers.N)
		}
		if res.UnionSize > shards*k {
			t.Fatalf("shards=%d: union %d exceeds s·k = %d", shards, res.UnionSize, shards*k)
		}
		realized := Cover(ds, res.Centers, nil)
		if realized > res.Bound+1e-9 {
			t.Fatalf("shards=%d: realized %g escapes bound %g", shards, realized, res.Bound)
		}
		// Bound ≤ 10·OPT ≤ 10·GON certified; empirically far below.
		if res.Bound > 10*gon.Radius+1e-9 {
			t.Fatalf("shards=%d: bound %g > 10·GON %g", shards, res.Bound, 10*gon.Radius)
		}
		if res.LowerBound > gon.Radius+1e-9 {
			t.Fatalf("shards=%d: lower bound %g > GON %g", shards, res.LowerBound, gon.Radius)
		}
	}
}

func TestShardedErrors(t *testing.T) {
	if _, err := NewSharded(ShardedConfig{K: 0}); err == nil {
		t.Fatal("k=0 should fail")
	}
	sh, err := NewSharded(ShardedConfig{K: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Push(nil); err == nil {
		t.Fatal("empty point should fail")
	}
	if err := sh.Push([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := sh.Push([]float64{1, 2, 3}); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	if _, err := sh.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := sh.Push([]float64{3, 4}); err == nil {
		t.Fatal("Push after Finish should fail")
	}
	if _, err := sh.Finish(); err == nil {
		t.Fatal("double Finish should fail")
	}

	empty, err := NewSharded(ShardedConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Finish(); err == nil {
		t.Fatal("Finish on empty stream should fail")
	}
}

// TestSummaryManhattanMetric exercises the non-Euclidean path end to end:
// the invariants are metric-agnostic as long as the triangle inequality
// holds. Cover must also find a point sitting on a center when the center
// distances and the pruning bound have overflowed to +Inf.
func TestSummaryManhattanMetric(t *testing.T) {
	const n, k = 1500, 5
	ds := randomDataset(n, 2, 33)
	m := metric.Manhattan{}
	s := NewSummary(k, Options{Metric: m})
	pushAll(s, ds)
	if s.Count() > k {
		t.Fatalf("%d centers", s.Count())
	}
	realized := Cover(ds, s.Centers(), m)
	if realized > s.Bound()+1e-9 {
		t.Fatalf("realized %g escapes bound %g", realized, s.Bound())
	}

	sh, err := NewSharded(ShardedConfig{K: k, Shards: 4, Metric: m})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.N; i++ {
		if err := sh.Push(ds.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sh.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := Cover(ds, res.Centers, m); got > res.Bound+1e-9 {
		t.Fatalf("sharded realized %g escapes bound %g", got, res.Bound)
	}

	far, err := metric.FromPoints([][]float64{{-1e308}, {1e308}})
	if err != nil {
		t.Fatal(err)
	}
	on, err := metric.FromPoints([][]float64{{1e308}})
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range []metric.Interface{nil, m} {
		if got := Cover(on, far, mm); got != 0 {
			t.Fatalf("metric %v: point on a center covered at %g, want 0", mm, got)
		}
	}
}

// TestSummaryBoundMonotone: the doubling radius never decreases, so the
// certified bound is monotone over the stream.
func TestSummaryBoundMonotone(t *testing.T) {
	ds := randomDataset(800, 2, 55)
	s := NewSummary(4, Options{})
	prev := 0.0
	for i := 0; i < ds.N; i++ {
		s.Push(ds.At(i))
		if s.Bound() < prev {
			t.Fatalf("bound shrank at point %d: %g -> %g", i, prev, s.Bound())
		}
		prev = s.Bound()
	}
	if s.Merges() == 0 {
		t.Fatal("expected at least one doubling round on 800 random points, k=4")
	}
	if math.IsInf(s.Bound(), 1) || s.Bound() <= 0 {
		t.Fatalf("bound %g", s.Bound())
	}
}
