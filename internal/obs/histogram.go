// Lock-free fixed-bucket latency histograms. The bucket bounds are
// exponential (powers of two from 1µs) and identical for every histogram in
// the process, so histograms merge associatively by element-wise addition —
// per-tenant series roll up to process totals with NumBuckets integer adds
// and no re-bucketing error.

package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// histMinNanos is the first bucket's upper bound: 1µs. Sub-microsecond
	// observations all land in bucket 0 — nothing on the serving path is
	// faster than that and worth distinguishing.
	histMinNanos = 1_000
	// NumBuckets is the bucket count: 24 finite bounds 1µs·2^i (the last
	// ≈8.39s, covering the 1µs–10s serving range) plus the +Inf overflow.
	NumBuckets = 25
)

// BucketBound returns bucket i's inclusive upper bound;
// math.MaxInt64 (treated as +Inf) for the overflow bucket. Bounds are
// strictly increasing in i.
func BucketBound(i int) time.Duration {
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	return time.Duration(histMinNanos << uint(i))
}

// bucketSeconds is bucket i's upper bound in seconds, for Prometheus "le"
// labels; +Inf for the overflow bucket.
func bucketSeconds(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(int64(histMinNanos)<<uint(i)) / 1e9
}

// bucketIdx maps a non-negative nanosecond value to the smallest bucket
// whose bound covers it.
func bucketIdx(nanos int64) int {
	if nanos <= histMinNanos {
		return 0
	}
	// Smallest i with ceil(nanos/1µs) ≤ 2^i.
	q := uint64((nanos + histMinNanos - 1) / histMinNanos)
	i := bits.Len64(q - 1)
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// Histogram is a lock-free fixed-bucket latency histogram: per-bucket
// counts, total count, sum and max, all atomics. Observe is safe under full
// concurrency and costs a handful of uncontended atomic adds; the zero
// Histogram is ready to use.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

// Observe records one duration. Negative durations (clock steps) clamp to 0.
func (h *Histogram) Observe(d time.Duration) {
	n := int64(d)
	if n < 0 {
		n = 0
	}
	h.buckets[bucketIdx(n)].Add(1)
	h.count.Add(1)
	h.sum.Add(n)
	for {
		cur := h.max.Load()
		if n <= cur || h.max.CompareAndSwap(cur, n) {
			return
		}
	}
}

// ObserveSince records the time elapsed since t0, treating the zero time as
// "the span was not timed" and recording nothing.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if t0.IsZero() {
		return
	}
	h.Observe(time.Since(t0))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistogramSnapshot is a point-in-time copy of a Histogram, the unit that
// merges and exports. Under concurrent Observe calls the copied fields are
// each atomically read but not mutually consistent (count may momentarily
// exceed the bucket sum by in-flight observations); for monitoring that
// skew is harmless and bounded by the writer count.
type HistogramSnapshot struct {
	// Buckets holds per-bucket (non-cumulative) observation counts.
	Buckets [NumBuckets]int64
	// Count, SumNanos and MaxNanos summarize all observations.
	Count    int64
	SumNanos int64
	MaxNanos int64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNanos = h.sum.Load()
	s.MaxNanos = h.max.Load()
	return s
}

// Merge adds o into s element-wise. Because every histogram shares the same
// bucket bounds, Merge is exact and associative: merging per-tenant
// snapshots in any order or grouping yields the identical process total.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.SumNanos += o.SumNanos
	if o.MaxNanos > s.MaxNanos {
		s.MaxNanos = o.MaxNanos
	}
}

// Quantile estimates the q-quantile (0 < q ≤ 1) by nearest rank over the
// bucket counts with linear interpolation inside the covering bucket,
// clamped to the exact observed maximum. 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = int64(BucketBound(i - 1))
		}
		hi := int64(BucketBound(i))
		if i == NumBuckets-1 {
			// Overflow bucket: the observed max is the only honest bound.
			hi = s.MaxNanos
		}
		if hi > s.MaxNanos && s.MaxNanos > lo {
			hi = s.MaxNanos
		}
		// Position of the ranked observation inside this bucket.
		frac := float64(rank-(cum-c)) / float64(c)
		v := float64(lo) + frac*float64(hi-lo)
		return time.Duration(v)
	}
	return time.Duration(s.MaxNanos)
}

// Mean returns the mean observation; 0 for an empty snapshot.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count <= 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}
