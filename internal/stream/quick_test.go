package stream

import (
	"math"
	"testing"
	"testing/quick"

	"kcenter/internal/core"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// Property: the coverage test agrees with the naive full scan in the same
// comparison space, for the squared-Euclidean fast path (matrix-pruned scan
// or, at dim ≤ 2 from sweepMinCenters centers, the sorted sweep) and for a
// generic metric: neither the skips nor the early exits may change the
// covered/uncovered verdict Push acts on. Besides random queries it asks,
// under both metrics, queries at exactly lim from a center along one axis
// (and one float closer and further), where the generic metric's
// triangle-inequality skip meets rounding ties, every center at lim = 0 as
// the fill phase does, coordinates of ±1e154 whose squares overflow, and
// NaN and ±Inf queries.
func TestQuickCoveredWithinMatchesFullScan(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	var swept int
	f := func(seed uint64, nRaw, dimRaw, kRaw uint8, limRaw uint16, huge bool) bool {
		n, dim, k := int(nRaw)+1, int(dimRaw%4)+1, int(kRaw%64)+1
		r := rng.New(seed)
		ds := metric.NewDataset(n, dim)
		scale := 1.0
		if huge {
			scale = 1e152 // pairwise squares overflow to +Inf
		}
		for i := range ds.Data {
			ds.Data[i] = scale * r.Float64Range(-100, 100)
		}
		for _, m := range []metric.Interface{nil, metric.Manhattan{}} {
			s := NewSummary(k, Options{Metric: m})
			pushAll(s, ds)
			check := func(q []float64, lim float64) bool {
				want := false
				for i := 0; i < s.centers.N; i++ {
					if m == nil && metric.SqDist(s.centers.At(i), q) <= lim*lim ||
						m != nil && m.Distance(s.centers.At(i), q) <= lim {
						want = true
					}
				}
				got := s.coveredWithin(q, lim)
				if m == nil && s.sweep != nil {
					swept++
				}
				if got != want {
					t.Logf("k=%d dim=%d centers=%d metric=%v sweep=%v: query %v at lim %v gives %v, want %v",
						k, dim, s.centers.N, m, s.sweep != nil, q, lim, got, want)
				}
				return got == want
			}
			lims := []float64{0, scale * float64(limRaw) / 100, 1e154, inf}
			q := make([]float64, dim)
			for trial := 0; trial < 20; trial++ {
				for j := range q {
					q[j] = scale * r.Float64Range(-120, 120)
				}
				for _, lim := range lims {
					if !check(q, lim) {
						return false
					}
				}
			}
			for i := 0; i < s.centers.N; i++ {
				c := s.centers.At(i)
				if !check(c, 0) {
					return false
				}
				// At exactly lim along one axis: lim is the rounded
				// difference itself, so the squared distance is lim² and
				// the L1 distance is lim.
				axis := r.Intn(dim)
				copy(q, c)
				q[axis] += scale * r.Float64Range(0, 5)
				lim := math.Abs(q[axis] - c[axis])
				for _, l := range []float64{lim, math.Nextafter(lim, 0), math.Nextafter(lim, inf)} {
					if !check(q, l) {
						return false
					}
				}
				for _, v := range []float64{1e154, -1e154, nan, inf, -inf} {
					copy(q, c)
					q[axis] = v
					for _, l := range lims {
						if !check(q, l) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if swept == 0 {
		t.Fatal("no query reached the sorted sweep")
	}
}

// quickInstance derives a small random instance from fuzz inputs, mirroring
// internal/core's quick tests.
func quickInstance(seed uint64, nRaw, dimRaw uint8) *metric.Dataset {
	n := int(nRaw%60) + 5
	dim := int(dimRaw%4) + 1
	r := rng.New(seed)
	ds := metric.NewDataset(n, dim)
	for i := range ds.Data {
		ds.Data[i] = r.Float64Range(-100, 100)
	}
	return ds
}

// Property: after any stream, the Summary retains at most k centers, its
// certified bound dominates both the realized covering radius and the lower
// bound, and the bound never exceeds 8× the batch Gonzalez radius
// (Bound ≤ 8·OPT ≤ 8·GON).
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(seed uint64, nRaw, dimRaw, kRaw uint8) bool {
		ds := quickInstance(seed, nRaw, dimRaw)
		k := int(kRaw%6) + 1
		s := NewSummary(k, Options{})
		pushAll(s, ds)
		if s.Count() > k || s.N() != int64(ds.N) {
			return false
		}
		realized := Cover(ds, s.Centers(), nil)
		if realized > s.Bound()+1e-9 {
			return false
		}
		if s.Bound() < s.LowerBound() {
			return false
		}
		gon := core.Gonzalez(ds, k, core.Options{First: 0})
		return s.Bound() <= 8*gon.Radius+1e-9 && s.LowerBound() <= gon.Radius+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the final radius bracket holds under arbitrary permutations of
// the same input — feeding a shuffled copy keeps the realized radius within
// [LowerBound, Bound] and the bound within the proven constant factor of
// the batch baseline computed once on the unshuffled data.
func TestQuickSummaryPermutationBand(t *testing.T) {
	f := func(seed, permSeed uint64, nRaw, kRaw uint8) bool {
		ds := quickInstance(seed, nRaw, 2)
		k := int(kRaw%5) + 1
		gon := core.Gonzalez(ds, k, core.Options{First: 0})
		s := NewSummary(k, Options{})
		for _, i := range rng.New(permSeed).Perm(ds.N) {
			s.Push(ds.At(i))
		}
		realized := Cover(ds, s.Centers(), nil)
		if realized+1e-9 < s.LowerBound() || realized > s.Bound()+1e-9 {
			return false
		}
		return realized <= 8*gon.Radius+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: a prefix of the stream is summarized at least as tightly as the
// full stream — the doubling radius r is monotone non-decreasing in stream
// length (ingestion can only raise the lower bound, never retract it).
func TestQuickSummaryRadiusMonotone(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		ds := quickInstance(seed, nRaw, 3)
		k := int(kRaw%4) + 1
		s := NewSummary(k, Options{})
		prev := 0.0
		for i := 0; i < ds.N; i++ {
			s.Push(ds.At(i))
			if s.R() < prev {
				return false
			}
			prev = s.R()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: duplicates are free — ingesting each point twice in a row leaves
// the retained centers and radius identical to the deduplicated stream
// (a duplicate is always within the coverage threshold of its original).
func TestQuickSummaryDuplicateInsensitive(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		ds := quickInstance(seed, nRaw, 2)
		k := int(kRaw%5) + 1
		plain := NewSummary(k, Options{})
		doubled := NewSummary(k, Options{})
		for i := 0; i < ds.N; i++ {
			plain.Push(ds.At(i))
			doubled.Push(ds.At(i))
			doubled.Push(ds.At(i))
		}
		if plain.Count() != doubled.Count() || plain.R() != doubled.R() {
			return false
		}
		a, b := plain.Centers(), doubled.Centers()
		for i := 0; i < a.N; i++ {
			for j := 0; j < a.Dim; j++ {
				if a.At(i)[j] != b.At(i)[j] {
					return false
				}
			}
		}
		return doubled.N() == 2*plain.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sharded merge preserves the certificates for every shard
// count — realized ≤ Bound, LowerBound ≤ GON, ≤ k centers.
func TestQuickShardedInvariants(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw, shardsRaw uint8) bool {
		ds := quickInstance(seed, nRaw, 2)
		k := int(kRaw%5) + 1
		shards := int(shardsRaw%8) + 1
		sh, err := NewSharded(ShardedConfig{K: k, Shards: shards})
		if err != nil {
			return false
		}
		for i := 0; i < ds.N; i++ {
			if err := sh.Push(ds.At(i)); err != nil {
				return false
			}
		}
		res, err := sh.Finish()
		if err != nil {
			return false
		}
		if res.Centers.N > k || res.Ingested != int64(ds.N) {
			return false
		}
		if Cover(ds, res.Centers, nil) > res.Bound+1e-9 {
			return false
		}
		gon := core.Gonzalez(ds, k, core.Options{First: 0})
		return res.LowerBound <= gon.Radius+1e-9 && res.Bound <= 10*gon.Radius+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
