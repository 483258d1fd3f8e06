package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundsMonotonic(t *testing.T) {
	for i := 1; i < NumBuckets; i++ {
		if BucketBound(i) <= BucketBound(i-1) {
			t.Fatalf("bounds not strictly increasing at %d: %v <= %v",
				i, BucketBound(i), BucketBound(i-1))
		}
	}
	if BucketBound(NumBuckets-1) != math.MaxInt64 {
		t.Fatalf("overflow bound = %v, want MaxInt64", BucketBound(NumBuckets-1))
	}
	if !math.IsInf(bucketSeconds(NumBuckets-1), 1) {
		t.Fatalf("overflow bucketSeconds not +Inf")
	}
	// The last finite bound must cover the advertised ~10s range order of
	// magnitude (it is ~8.39s; the +Inf bucket takes the rest).
	if last := BucketBound(NumBuckets - 2); last < 8*time.Second {
		t.Fatalf("last finite bound %v too small", last)
	}
}

func TestBucketIdxBoundaries(t *testing.T) {
	if got := bucketIdx(0); got != 0 {
		t.Fatalf("bucketIdx(0) = %d", got)
	}
	for i := 0; i < NumBuckets-1; i++ {
		bound := int64(BucketBound(i))
		if got := bucketIdx(bound); got != i {
			t.Fatalf("bucketIdx(bound %d) = %d, want %d", bound, got, i)
		}
		if got := bucketIdx(bound + 1); got != i+1 && i+1 < NumBuckets {
			t.Fatalf("bucketIdx(bound %d + 1) = %d, want %d", bound, got, i+1)
		}
	}
	if got := bucketIdx(math.MaxInt64); got != NumBuckets-1 {
		t.Fatalf("bucketIdx(MaxInt64) = %d, want overflow bucket", got)
	}
}

// Every observation must land in a bucket whose bound covers it and whose
// predecessor's bound does not.
func TestBucketIdxCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10000; trial++ {
		n := rng.Int63n(int64(20 * time.Second))
		i := bucketIdx(n)
		if n > int64(BucketBound(i)) {
			t.Fatalf("n=%d landed in bucket %d with bound %v", n, i, BucketBound(i))
		}
		if i > 0 && n <= int64(BucketBound(i-1)) {
			t.Fatalf("n=%d in bucket %d but bucket %d bound %v covers it",
				n, i, i-1, BucketBound(i-1))
		}
	}
}

func TestMergeAssociativeAndCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mk := func() HistogramSnapshot {
		var h Histogram
		for i := 0; i < 200; i++ {
			h.Observe(time.Duration(rng.Int63n(int64(12 * time.Second))))
		}
		return h.Snapshot()
	}
	a, b, c := mk(), mk(), mk()

	// (a⊕b)⊕c
	left := a
	left.Merge(b)
	left.Merge(c)
	// a⊕(b⊕c)
	bc := b
	bc.Merge(c)
	right := a
	right.Merge(bc)
	if left != right {
		t.Fatalf("merge not associative:\n%+v\n%+v", left, right)
	}
	// b⊕a vs a⊕b
	ba := b
	ba.Merge(a)
	ab := a
	ab.Merge(b)
	if ab != ba {
		t.Fatalf("merge not commutative")
	}
	if want := a.Count + b.Count + c.Count; left.Count != want {
		t.Fatalf("merged count = %d, want %d", left.Count, want)
	}
}

func TestObserveAccounting(t *testing.T) {
	var h Histogram
	durs := []time.Duration{0, time.Microsecond, 3 * time.Millisecond,
		700 * time.Millisecond, 15 * time.Second, -5 * time.Second}
	var sum int64
	for _, d := range durs {
		h.Observe(d)
		if d > 0 {
			sum += int64(d)
		}
	}
	s := h.Snapshot()
	if s.Count != int64(len(durs)) {
		t.Fatalf("count = %d, want %d", s.Count, len(durs))
	}
	if s.SumNanos != sum {
		t.Fatalf("sum = %d, want %d (negatives clamp to 0)", s.SumNanos, sum)
	}
	if s.MaxNanos != int64(15*time.Second) {
		t.Fatalf("max = %d", s.MaxNanos)
	}
	var inBuckets int64
	for _, c := range s.Buckets {
		inBuckets += c
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket total %d != count %d", inBuckets, s.Count)
	}
	if s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("15s should be the only overflow observation, got %d", s.Buckets[NumBuckets-1])
	}
}

func TestObserveSinceZeroIsNoop(t *testing.T) {
	var h Histogram
	h.ObserveSince(time.Time{})
	if h.Count() != 0 {
		t.Fatalf("zero-time ObserveSince recorded")
	}
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if h.Count() != 1 {
		t.Fatalf("real ObserveSince did not record")
	}
}

func TestQuantile(t *testing.T) {
	var h Histogram
	// 100 observations at ~1ms, 1 at ~1s: p50 must sit in the ms range,
	// p100 must be the exact max.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Second)
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 <= 0 || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if p100 := s.Quantile(1.0); p100 != time.Second {
		t.Fatalf("p100 = %v, want exact max 1s", p100)
	}
	if p99 := s.Quantile(0.99); p99 > time.Second {
		t.Fatalf("p99 = %v exceeds max", p99)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatalf("empty snapshot quantile/mean not 0")
	}
}

// Concurrent Observe under -race, and the invariant that a quiescent
// snapshot accounts for every observation exactly once.
func TestConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Int63n(int64(10 * time.Second))))
			}
		}(int64(g))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var inBuckets int64
	for _, c := range s.Buckets {
		inBuckets += c
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket total %d != count %d", inBuckets, s.Count)
	}
}

func BenchmarkObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}
