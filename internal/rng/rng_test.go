package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("streams diverged at %d: %d vs %d", i, x, y)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 1000", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c0 := parent.Split(0)
	c1 := parent.Split(1)
	// A re-split with the same index must reproduce the same stream.
	c0b := parent.Split(0)
	for i := 0; i < 100; i++ {
		if c0.Uint64() != c0b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
	// Distinct indices should not collide.
	c0 = parent.Split(0)
	same := 0
	for i := 0; i < 1000; i++ {
		if c0.Uint64() == c1.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams matched %d/1000 outputs", same)
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a, b := New(9), New(9)
	_ = a.Split(3)
	_ = a.Split(4)
	for i := 0; i < 32; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent stream")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared test over 10 buckets; threshold chosen loose (99.9th pct
	// of chi2 with 9 dof is ~27.9).
	s := New(11)
	const n, trials = 10, 100000
	var counts [n]int
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	expected := float64(trials) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.9 {
		t.Fatalf("Intn chi2 = %.2f, suspiciously non-uniform: %v", chi2, counts)
	}
}

func TestFloat64Range01(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	s := New(8)
	const trials = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		f := s.Float64()
		sum += f
		sumsq += f * f
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Fatalf("Float64 variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(13)
	const trials = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		z := s.NormFloat64()
		sum += z
		sumsq += z * z
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("NormFloat64 mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("NormFloat64 variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(21)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	s := New(31)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 1}, {10, 3}, {10, 10}, {1000, 5}, {1000, 900}} {
		out := s.Sample(tc.n, tc.k)
		if len(out) != tc.k {
			t.Fatalf("Sample(%d,%d) returned %d items", tc.n, tc.k, len(out))
		}
		seen := map[int]bool{}
		for _, v := range out {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("Sample(%d,%d) = %v invalid", tc.n, tc.k, out)
			}
			seen[v] = true
		}
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Sample(3, 4)")
		}
	}()
	New(1).Sample(3, 4)
}

func TestBernoulliEdges(t *testing.T) {
	s := New(17)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestMul64AgainstBigMultiplication(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify via four 32x32 partial products recombined differently.
		const m = 1<<32 - 1
		a0, a1 := a&m, a>>32
		b0, b1 := b&m, b>>32
		p00 := a0 * b0
		p01 := a0 * b1
		p10 := a1 * b0
		p11 := a1 * b1
		mid := p01 + p00>>32
		midLo := mid & m
		midHi := mid >> 32
		mid2 := p10 + midLo
		wantHi := p11 + midHi + mid2>>32
		wantLo := mid2<<32 | p00&m
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestExpPositiveAndMeanOne(t *testing.T) {
	s := New(23)
	const trials = 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		e := s.Exp()
		if e < 0 {
			t.Fatalf("Exp returned negative %v", e)
		}
		sum += e
	}
	if mean := sum / trials; math.Abs(mean-1) > 0.02 {
		t.Fatalf("Exp mean = %v, want ~1", mean)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(29)
	const trials = 100001
	vals := make([]float64, trials)
	for i := range vals {
		vals[i] = s.LogNormal(2, 0.5)
	}
	// Median of LogNormal(mu, sigma) is exp(mu); estimate by counting below.
	below := 0
	median := math.Exp(2)
	for _, v := range vals {
		if v < median {
			below++
		}
	}
	frac := float64(below) / trials
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("LogNormal median fraction = %v, want ~0.5", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.NormFloat64()
	}
	_ = sink
}
