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

// pruned is a center set prepared for triangle-inequality-pruned
// nearest-center queries, the Index kernel chosen at dim ≥ 3 above the
// crossover on NewIndex.
type pruned struct {
	c  *Dataset  // the k center coordinates, gathered contiguously
	cc []float64 // the k×k squared center-center distances, row-major
}

// newPruned gathers the center-center distance matrix for c, k² distance
// evaluations amortized over the queries that follow.
func newPruned(c *Dataset) *pruned {
	k := c.N
	cc := make([]float64, k*k)
	for i := 0; i < k; i++ {
		SqDistsInto(cc[i*k:(i+1)*k], c, 0, k, c.At(i))
	}
	return &pruned{c: c, cc: cc}
}

// sqTo returns the squared distance from center c to q with a dimension-
// specialized body (the same accumulation order as SqDist), avoiding the
// per-candidate slice-header and call overhead on the surviving
// evaluations.
func (p *pruned) sqTo(c int, q []float64) float64 {
	base := c * p.c.Dim
	data := p.c.Data
	switch p.c.Dim {
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
		return SqDist(data[base:base+p.c.Dim:base+p.c.Dim], q)
	}
}

// nearest returns the position of the center nearest to q, its squared
// distance, and the number of distance evaluations performed. Like
// NearestInRange it keeps the first strictly smaller squared distance from
// +Inf, so it returns the same position and squared distance, but skips
// every candidate whose matrix entry certifies it cannot win. Until a
// distance below +Inf is found the limit is NaN, which no entry reaches.
func (p *pruned) nearest(q []float64) (int, float64, int64) {
	if p.c.Dim == 2 {
		return p.nearest2(q)
	}
	k := p.c.N
	best, bestSq, evals := 0, math.Inf(1), int64(0)
	row, lim := p.cc[:k], math.NaN() // the row of the current best center
	for c := 0; c < k; c++ {
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

// nearest2 is nearest with the candidate evaluation inlined for the 2-D
// common case: at dim 2 a squared distance is four flops, so even the
// overhead of a specialized call per surviving candidate would rival the
// arithmetic it performs.
func (p *pruned) nearest2(q []float64) (int, float64, int64) {
	data := p.c.Data
	k := p.c.N
	q0, q1 := q[0], q[1]
	best, bestSq, evals := 0, math.Inf(1), int64(0)
	row, lim := p.cc[:k], math.NaN()
	for c := 0; c < k; c++ {
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
