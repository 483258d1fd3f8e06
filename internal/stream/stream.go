// Package stream provides insertion-only streaming k-center: a bounded-memory
// Summary implementing the doubling algorithm of Charikar, Chekuri, Feder and
// Motwani, and a Sharded ingester that fans a point stream out across
// goroutine-owned shards and merges their summaries with a Gonzalez pass —
// the same two-level compose-then-recluster structure as the paper's MRG
// (Algorithm 1), transplanted from batch partitions to live shards.
//
// The batch algorithms in this repository (core, mrg, eim) require the whole
// dataset to be materialized before clustering starts. A Summary instead
// maintains at most k centers and a lower-bound radius r with two invariants:
//
//	(I1) every ingested point lies within 4r of a retained center;
//	(I2) retained centers are pairwise at least 2r apart.
//
// A new point within 4r of a center is discarded; otherwise it becomes a
// center. When the center count would exceed k, (I2) certifies via the
// pigeonhole principle that OPT ≥ r, so r is doubled and centers closer than
// the new 2r are greedily merged. Both invariants survive the doubling
// (4r_old + 2r_new = 4r_new), and r ≤ 2·OPT holds throughout, so the
// retained centers cover the stream within 4r ≤ 8·OPT: the classic
// 8-approximation in O(k) memory per stream, independent of n.
//
// Each push costs one coverage test against the retained centers. At dim
// ≤ 2 it walks them sorted on one coordinate (metric.Sweep.Within) and
// evaluates a few; elsewhere it scans them from the first, skipping those
// the center-center matrix rules out (see Summary.coveredWithin).
//
// Sharding composes the same way MRG's reducer rounds do: each shard holds a
// sub-stream's 8-approximate summary, and the final Gonzalez pass over the
// ≤ s·k union centers (all genuine input points) adds at most 2·OPT, giving
// a 10-approximation overall (4r* from the worst shard plus the 2-approximate
// recluster of the union).
package stream

import (
	"fmt"
	"math"

	"kcenter/internal/metric"
)

// Options configures a Summary.
type Options struct {
	// Metric is the distance used for coverage and merging decisions; nil
	// means Euclidean, which additionally enables the squared-distance fast
	// path (comparisons avoid the square root entirely, as in core).
	Metric metric.Interface
}

// Summary is a bounded-memory sketch of an insertion-only point stream for
// the k-center objective. It retains at most k centers (coordinates copied
// from ingested points) and a doubling radius r. A Summary is NOT safe for
// concurrent use; Sharded owns one Summary per goroutine instead of sharing.
//
// Alongside the centers the Summary maintains their pairwise distance
// matrix. Centers change rarely (only when a point escapes coverage, and
// wholesale only on a doubling round), so the matrix is extended one row
// per new center and compacted on merges rather than recomputed.
// mergeDown's pairwise comparisons and the first overflow's radius read
// it instead of re-evaluating distances. At dim ≥ 3, under a custom
// metric, or below sweepMinCenters centers, the coverage test in Push
// reads it too, to skip centers the triangle inequality rules out; at dim
// ≤ 2 with more centers the test walks a sorted copy of the centers
// instead (see coveredWithin).
type Summary struct {
	k       int
	m       metric.Interface // nil = Euclidean fast path on squared distances
	centers *metric.Dataset  // ≤ k+1 rows; coordinates copied at Push time
	// cc is the center-center distance matrix, row-major with stride k+1
	// (centers.N never exceeds k+1): squared Euclidean distances when m is
	// nil, metric distances otherwise. Allocated once at first Push.
	cc     []float64
	r      float64 // doubling radius; 0 during the fill phase
	n      int64   // points ingested
	merges int     // doubling rounds executed
	// version counts center-set changes (appends and merge compactions).
	// Most pushes are discards that leave the centers untouched, so a
	// cached view of the clustering (e.g. the serving layer's snapshot)
	// stays valid exactly while the version stands still.
	version uint64
	// sweep is the centers sorted for coveredWithin's Euclidean test, or
	// nil where the matrix-pruned scan answers. It describes the centers
	// only while sweepFresh holds: every change to the centers clears the
	// flag and the next coverage test rebuilds. It is a flag, not a
	// remembered version, because restoreState rewinds the version.
	sweep      *metric.Sweep
	sweepFresh bool
}

// sweepMinCenters is the fewest centers (at dim ≤ 2) for which the coverage
// test walks a metric.Sweep rather than the matrix-pruned scan.
// BenchmarkStreamPush's dim-2 rows sit on both sides of it: k = 4 and 6
// keep at most 7 centers, k = 10 upward pass it. With the sweep forced on
// from one center (6 alternating runs on a 2-vCPU host) the k = 4 row
// took 23.5 ns per push against the scan's 10.2 and the k = 6 row 17.5
// against 15.1, as the sweep's rebuilds and bucket lookup cost more than
// skipping a few centers saves; from k = 8 the sweep wins (GAU and UNIF
// streams at k ∈ {8, 10, 12, 16}: 0.47–0.87× the scan's time on GAU,
// 0.77–1.06× on UNIF).
const sweepMinCenters = 8

// NewSummary returns an empty Summary targeting at most k centers. It panics
// on k <= 0, a programming error in this repository's callers (matching
// core.Gonzalez).
func NewSummary(k int, opt Options) *Summary {
	if k <= 0 {
		panic(fmt.Sprintf("stream: NewSummary requires k >= 1, got %d", k))
	}
	return &Summary{k: k, m: opt.Metric}
}

// ccDist returns the true distance between centers i and j from the matrix
// (taking the square root of the squared-Euclidean entry, so comparisons
// match what re-evaluating the metric would produce).
func (s *Summary) ccDist(i, j int) float64 {
	v := s.cc[i*(s.k+1)+j]
	if s.m == nil {
		return math.Sqrt(v)
	}
	return v
}

// appendCenter retains p as a new center and extends the distance matrix
// with its row/column against the existing centers.
func (s *Summary) appendCenter(p []float64) {
	s.version++
	s.sweepFresh = false
	s.centers.Append(p)
	n := s.centers.N
	stride := s.k + 1
	i := n - 1
	row := s.cc[i*stride : i*stride+n]
	if s.m == nil {
		metric.SqDistsInto(row, s.centers, 0, n, s.centers.At(i))
	} else {
		cp := s.centers.At(i)
		for j := 0; j < n; j++ {
			row[j] = s.m.Distance(s.centers.At(j), cp)
		}
	}
	for j := 0; j < n; j++ {
		s.cc[j*stride+i] = row[j]
	}
}

// coveredWithin reports whether some retained center lies within lim of p.
// The outcome matches computing the full nearest-center distance and
// comparing it to lim; on the Euclidean fast path it is exactly whether
// some center has SqDist ≤ lim², so no square roots are taken at all.
//
// At dim ≤ 2 with at least sweepMinCenters centers, all finite, the
// Euclidean test asks a metric.Sweep of the centers (Sweep.Within), which
// starts at p's bucket of the sorted keys and evaluates only the centers
// whose gap on the sort coordinate could still cover. The sweep is rebuilt
// here, on the first test after the centers change. Only an escape or a
// doubling changes them, and there are at most k+1 escapes between two
// doublings, so a stream pays O(k·log(spread)) sweep builds in all, where
// spread is the ratio of its final radius to its first.
//
// Otherwise the scan early-exits on the first covering center and skips
// candidates the center matrix rules out: with best-so-far center c_b at
// distance d_b, a candidate c with d(c_b, c) > d_b + lim cannot cover p
// (triangle inequality). On the Euclidean fast path the skip test stays
// in squared space, cc(c_b, c) > 2·(d_b² + lim²), the AM–GM relaxation
// of (d_b + lim)². It is strict so that where both sides overflowed to
// +Inf nothing is skipped: an infinite matrix entry says nothing about
// how it compares with an infinite bound. A custom metric's skip test,
// cc(c_b, c) > 2·(d_b + lim), keeps the same factor-2 slack: the matrix
// entry and d_b + lim are rounded separately, so at a center exactly lim
// away (common under L1, whose triangle inequality is tight) the exact
// bound d_b + lim can sit one ulp below the entry. Past overflow the
// bound is +Inf and skips nothing.
func (s *Summary) coveredWithin(p []float64, lim float64) bool {
	n := s.centers.N
	if n == 0 {
		return false
	}
	stride := s.k + 1
	if s.m == nil {
		limSq := lim * lim
		if !s.sweepFresh {
			s.sweep, s.sweepFresh = nil, true
			if s.centers.Dim <= 2 && n >= sweepMinCenters && nonFinite(s.centers.Data) < 0 {
				s.sweep = metric.NewSweep(s.centers)
			}
		}
		if s.sweep != nil {
			return s.sweep.Within(p, limSq)
		}
		bestSq := metric.SqDist(s.centers.At(0), p)
		if bestSq <= limSq {
			return true
		}
		best := 0
		skip := 2 * (bestSq + limSq)
		for c := 1; c < n; c++ {
			if s.cc[best*stride+c] > skip {
				continue
			}
			sq := metric.SqDist(s.centers.At(c), p)
			if sq <= limSq {
				return true
			}
			if sq < bestSq {
				bestSq, best = sq, c
				skip = 2 * (bestSq + limSq)
			}
		}
		return false
	}
	bestD := s.m.Distance(s.centers.At(0), p)
	if bestD <= lim {
		return true
	}
	best := 0
	skip := 2 * (bestD + lim)
	for c := 1; c < n; c++ {
		if s.cc[best*stride+c] > skip {
			continue
		}
		d := s.m.Distance(s.centers.At(c), p)
		if d <= lim {
			return true
		}
		if d < bestD {
			bestD, best = d, c
			skip = 2 * (bestD + lim)
		}
	}
	return false
}

// Push ingests one point. The coordinates are copied; the caller may reuse p.
// Push panics on a dimension mismatch with previously pushed points, a
// programming error (Sharded and the public facade validate dimensions and
// return errors instead).
func (s *Summary) Push(p []float64) {
	if len(p) == 0 {
		panic("stream: Push with empty point")
	}
	if s.centers == nil {
		s.centers = metric.NewDataset(0, len(p))
		s.cc = make([]float64, (s.k+1)*(s.k+1))
	} else if len(p) != s.centers.Dim {
		panic(fmt.Sprintf("stream: Push dimension %d, want %d", len(p), s.centers.Dim))
	}
	s.n++

	if s.r == 0 {
		// Fill phase: every distinct point becomes a center (coverage is
		// exact, so (I1) holds with r = 0). Exact duplicates are dropped.
		if s.coveredWithin(p, 0) {
			return
		}
		s.appendCenter(p)
		if s.centers.N <= s.k {
			return
		}
		// First overflow: k+1 distinct points. Initialize r to half the
		// minimum pairwise distance — read straight off the maintained
		// matrix — which makes (I2) hold with equality on the closest pair
		// and certifies OPT ≥ r (any k-clustering of k+1 points pairwise
		// ≥ 2r puts two of them within 2·radius of each other, so radius
		// ≥ r).
		dmin := math.Inf(1)
		for i := 0; i < s.centers.N; i++ {
			for j := i + 1; j < s.centers.N; j++ {
				if d := s.ccDist(i, j); d < dmin {
					dmin = d
				}
			}
		}
		s.r = dmin / 2
		s.mergeDown()
		return
	}

	// Steady state: discard covered points, retain escapers as centers.
	if s.coveredWithin(p, 4*s.r) {
		return
	}
	s.appendCenter(p)
	if s.centers.N > s.k {
		s.mergeDown()
	}
}

// mergeDown restores |centers| ≤ k by doubling r and greedily dropping every
// center within 2r of an earlier-retained one. Each doubling is justified by
// (I2): while more than k centers remain they are pairwise ≥ 2r apart, so
// OPT ≥ r and the doubled radius still satisfies r ≤ 2·OPT. Coverage
// survives because a dropped center (whose points lay within 4r_old of it)
// sits within 2r_new = 4r_old of a kept center: 4r_old + 2r_new = 4r_new.
func (s *Summary) mergeDown() {
	stride := s.k + 1
	for s.centers.N > s.k {
		s.r *= 2
		s.merges++
		keep := make([]int, 0, s.centers.N)
		for i := 0; i < s.centers.N; i++ {
			ok := true
			for _, j := range keep {
				// The matrix already holds d(j, i); no re-evaluation.
				if s.ccDist(j, i) <= 2*s.r {
					ok = false
					break
				}
			}
			if ok {
				keep = append(keep, i)
			}
		}
		if len(keep) == s.centers.N {
			continue
		}
		s.version++
		s.sweepFresh = false
		s.centers = s.centers.Subset(keep)
		// Compact the matrix in place. keep is ascending with keep[a] >= a,
		// so every read position is at or after its write position and the
		// ascending traversal never reads an overwritten cell.
		for a, ka := range keep {
			for b, kb := range keep {
				s.cc[a*stride+b] = s.cc[ka*stride+kb]
			}
		}
	}
}

// Centers returns the retained center coordinates (≤ k rows). The returned
// dataset is a copy; mutating it does not affect the Summary. It is nil when
// nothing has been pushed.
func (s *Summary) Centers() *metric.Dataset {
	if s.centers == nil {
		return nil
	}
	return s.centers.Clone()
}

// Count returns the number of retained centers.
func (s *Summary) Count() int {
	if s.centers == nil {
		return 0
	}
	return s.centers.N
}

// N returns the number of points ingested.
func (s *Summary) N() int64 { return s.n }

// R returns the current doubling radius r. It is 0 while the stream still
// fits in k centers exactly; once positive it satisfies r ≤ 2·OPT over the
// ingested prefix.
func (s *Summary) R() float64 { return s.r }

// Bound returns the certified coverage bound 4r: every ingested point lies
// within Bound of some retained center, and Bound ≤ 8·OPT. It is 0 during
// the fill phase, when the centers cover the stream exactly.
func (s *Summary) Bound() float64 { return 4 * s.r }

// LowerBound returns a certified lower bound r/2 on the optimal k-center
// radius of the ingested points (0 while the stream fits in k centers).
func (s *Summary) LowerBound() float64 { return s.r / 2 }

// Merges returns how many doubling rounds have run, a diagnostic for tests
// and the harness.
func (s *Summary) Merges() int { return s.merges }

// Version returns a counter that increases exactly when the retained center
// set changes (a point is appended as a center, or a doubling round compacts
// the set). Discarded pushes leave it unchanged, so an unchanged Version
// certifies that a previously read center set is still current.
func (s *Summary) Version() uint64 { return s.version }

// Dim returns the point dimensionality (0 before the first Push).
func (s *Summary) Dim() int {
	if s.centers == nil {
		return 0
	}
	return s.centers.Dim
}

// Cover returns the realized covering radius of coordinate centers over ds:
// the maximum over points of the distance to the nearest center row. It is
// the evaluation primitive for streaming results, whose centers are
// coordinates rather than dataset indices (the stream never materializes the
// dataset, so index-based assign.Radius does not apply).
func Cover(ds *metric.Dataset, centers *metric.Dataset, m metric.Interface) float64 {
	if centers == nil || centers.N == 0 {
		panic("stream: Cover with no centers")
	}
	var worst float64
	if m == nil {
		idx := metric.NewIndex(centers)
		for i := 0; i < ds.N; i++ {
			if _, best, _ := idx.Nearest(ds.At(i)); best > worst {
				worst = best
			}
		}
		return math.Sqrt(worst)
	}
	// Generic-metric pruning over true distances: skip a candidate c when
	// d(c_best, c) > 2·d(p, c_best). The test is strict so that where both
	// sides overflowed to +Inf the candidate is still measured.
	k := centers.N
	cc := make([]float64, k*k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			d := m.Distance(centers.At(i), centers.At(j))
			cc[i*k+j] = d
			cc[j*k+i] = d
		}
	}
	for i := 0; i < ds.N; i++ {
		p := ds.At(i)
		best, bestD := 0, m.Distance(p, centers.At(0))
		for c := 1; c < k; c++ {
			if cc[best*k+c] > 2*bestD {
				continue
			}
			if d := m.Distance(p, centers.At(c)); d < bestD {
				bestD, best = d, c
			}
		}
		if bestD > worst {
			worst = bestD
		}
	}
	return worst
}
