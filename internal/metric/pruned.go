// Triangle-inequality pruning for nearest-center queries (Elkan-style
// center-center bounds, valid for any metric satisfying the triangle
// inequality; this implementation specializes the library's squared-
// Euclidean comparison space).
//
// Given centers c_0..c_{k-1} and a query p whose best-so-far center is
// c_b at distance d(p, c_b), any candidate c with
//
//	d(c_b, c) >= 2·d(p, c_b)
//
// cannot be strictly closer than c_b: d(p, c) >= d(c_b, c) - d(p, c_b)
// >= d(p, c_b). In squared space the test is cc(c_b, c) >= 4·bestSq with
// no square roots. Skipping such a c is also tie-safe: the scan breaks
// ties toward the lower index, and c_b always precedes the candidates
// still being scanned, so a tie keeps c_b either way. One k×k matrix of
// squared center-center distances, O(k²) to build, therefore makes every
// nearest-center query sub-linear in k in the common case — the paper's
// clustered GAU/UNB families prune hardest, because most points sit close
// to their center and 4·bestSq is tiny compared to the inter-center gaps.
//
// Pruning wins when k is moderate-to-large and queries concentrate near
// centers (assignment after clustering, steady-state streaming pushes).
// It loses when k is tiny (the matrix row scan costs as much as the
// distances it saves) or when queries are far from every center
// (4·bestSq exceeds all center-center distances and nothing prunes) —
// the kernels above keep even that worst case fast.

package metric

import "math"

// Pruned is a center set prepared for triangle-inequality-pruned nearest-
// center queries. It is immutable after construction and safe for
// concurrent readers; Evaluate's worker pool shares one instance.
type Pruned struct {
	// C holds the k center coordinates, gathered contiguously.
	C *Dataset
	// cc is the k×k matrix of squared center-center distances, row-major.
	cc []float64
}

// NewPruned gathers the center-center distance matrix for c. It costs
// c.N² distance evaluations (reported by MatrixEvals), amortized over the
// point scans that follow.
func NewPruned(c *Dataset) *Pruned {
	k := c.N
	cc := make([]float64, k*k)
	for i := 0; i < k; i++ {
		SqDistsInto(cc[i*k:(i+1)*k], c, 0, k, c.At(i))
	}
	return &Pruned{C: c, cc: cc}
}

// MatrixEvals returns the number of distance evaluations spent building
// the center-center matrix, for DistEvals accounting.
func (p *Pruned) MatrixEvals() int64 {
	return int64(p.C.N) * int64(p.C.N)
}

// sqTo returns the squared distance from center c to q with a dimension-
// specialized body (the same accumulation order as SqDist), avoiding the
// per-candidate slice-header and call overhead on the surviving
// evaluations.
func (p *Pruned) sqTo(c int, q []float64) float64 {
	base := c * p.C.Dim
	data := p.C.Data
	switch p.C.Dim {
	case 2:
		d0 := data[base] - q[0]
		d1 := data[base+1] - q[1]
		return d0*d0 + d1*d1
	case 3:
		d0 := data[base] - q[0]
		d1 := data[base+1] - q[1]
		d2 := data[base+2] - q[2]
		return d0*d0 + d1*d1 + d2*d2
	case 4:
		d0 := data[base] - q[0]
		d1 := data[base+1] - q[1]
		d2 := data[base+2] - q[2]
		d3 := data[base+3] - q[3]
		return ((d0*d0 + d1*d1) + d2*d2) + d3*d3
	case 8:
		return sqDist8(data[base:base+8], q)
	default:
		return SqDist(data[base:base+p.C.Dim:base+p.C.Dim], q)
	}
}

// Nearest returns the position of the center nearest to q, its squared
// distance, and the number of distance evaluations performed. The result
// is identical to NearestInRange(p.C, 0, p.C.N, q) — same index under the
// same tie-breaking, same squared distance — but candidates whose matrix
// entry certifies they cannot win are skipped without evaluating a
// distance.
func (p *Pruned) Nearest(q []float64) (int, float64, int64) {
	if p.C.Dim == 2 {
		return p.nearest2(q)
	}
	k := p.C.N
	best := 0
	bestSq := p.sqTo(0, q)
	evals := int64(1)
	if k == 1 {
		return best, bestSq, evals
	}
	row := p.cc[:k] // row of the current best center
	lim := pruneLimit(bestSq)
	for c := 1; c < k; c++ {
		if row[c] >= lim {
			continue
		}
		sq := p.sqTo(c, q)
		evals++
		if sq < bestSq {
			bestSq = sq
			best = c
			row = p.cc[c*k : (c+1)*k]
			lim = pruneLimit(bestSq)
		}
	}
	return best, bestSq, evals
}

// nearest2 is Nearest with the candidate evaluation inlined for the 2-D
// common case: at dim 2 a squared distance is four flops, so even the
// overhead of a specialized call per surviving candidate would rival the
// arithmetic it performs.
func (p *Pruned) nearest2(q []float64) (int, float64, int64) {
	data := p.C.Data
	k := p.C.N
	q0, q1 := q[0], q[1]
	d0 := data[0] - q0
	d1 := data[1] - q1
	best, bestSq, evals := 0, d0*d0+d1*d1, int64(1)
	if k == 1 {
		return best, bestSq, evals
	}
	row := p.cc[:k]
	lim := pruneLimit(bestSq)
	for c := 1; c < k; c++ {
		if row[c] >= lim {
			continue
		}
		e0 := data[2*c] - q0
		e1 := data[2*c+1] - q1
		evals++
		if sq := e0*e0 + e1*e1; sq < bestSq {
			bestSq = sq
			best = c
			row = p.cc[c*k : (c+1)*k]
			lim = pruneLimit(bestSq)
		}
	}
	return best, bestSq, evals
}

// pruneLimit returns the skip threshold 4·bestSq, or NaN, which no matrix
// entry reaches, when that product overflows: an entry of +Inf then no
// longer certifies that a center is at least 2·d(p, c_b) from c_b.
func pruneLimit(bestSq float64) float64 {
	if lim := 4 * bestSq; lim <= math.MaxFloat64 {
		return lim
	}
	return math.NaN()
}

// Threshold ("is any center within lim?") queries use the same matrix with
// a sqrt-free skip certificate, cc(c_b, c) >= 2·(bestSq + lim²) ⇒
// d(c_b, c) >= d(p, c_b) + lim (AM–GM); that variant lives where its
// incremental matrix does, in stream.Summary.coveredWithin.

// PreferPruned reports whether a triangle-inequality-pruned nearest-center
// scan (Pruned.Nearest) is expected to beat the plain one-to-many kernel
// scan (NearestInRange) for many queries against k centers of dimension
// dim. Both produce bit-identical results; this only picks the faster one.
//
// The crossover is fitted from the BenchmarkKernelPrunedNearest (k, dim)
// sweep in BENCH_kernels.json (k ∈ {8, 16, 25, 50, 100} × dim ∈ {2, 3, 4,
// 8}, clustered queries — pruning's best case):
//
//   - dim 2: pruned never wins decisively at any measured k (ties at
//     k ∈ {8, 16, 100}, loses 4–6% at k ∈ {25, 50}). A dim-2 distance is
//     four flops — the same cost as the matrix-row check that would skip
//     it — so the certificate can only break even before its own branch
//     overhead. Dim ≤ 2 therefore always takes the full kernel scan.
//   - dim ≥ 3: the saving per skipped candidate grows linearly with dim
//     while the check stays constant, so the break-even k shrinks like
//     1/dim. Measured: dim 3 wins at k ≥ 50 (up to 26%), loses below
//     k = 25; dim 4 wins at k ≥ 50; dim 8 wins from k = 16 (30% at
//     k = 100). k > 64/dim (clamped to k > 8) puts every measured win on
//     the pruned side and every measured loss on the full-scan side.
func PreferPruned(k, dim int) bool {
	if dim <= 2 {
		return false
	}
	threshold := 64 / dim
	if threshold < 8 {
		threshold = 8
	}
	return k > threshold
}
