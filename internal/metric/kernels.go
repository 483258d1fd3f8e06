// Distance-kernel engine: blocked one-to-many primitives over the flat
// Dataset.Data array.
//
// Every algorithm in this repository bottoms out in one of three scans
// against a single query point q:
//
//   - SqDistsInto: materialize the squared distances of a point range
//     (feeds the center-center pruning matrix and block-wise consumers);
//   - NearestInRange: fused argmin — the assignment/coverage primitive;
//   - RelaxFarthest: fused "relax against a new center, return the new
//     farthest point" — the Gonzalez traversal primitive.
//
// The per-point formulation (metric.SqDist(ds.At(i), q) in a caller loop)
// pays a slice-header construction, a non-inlined call and the generic
// unrolled loop's setup for every single point. The kernels instead walk
// Data directly with a dimension-specialized inner body for the common
// dims 1, 2, 3, 4 and 8 (the paper's UNIF/GAU families are 2-D) and a
// generic 4-way-unrolled fallback for everything else.
//
// Bit-identity contract: for every dimension, each kernel accumulates the
// squared distance in exactly the same floating-point order as SqDist —
// left-associated squares for dim < 8 (at dim 1 the lone d·d, which has
// the bits of SqDist's (((0 + d·d) + 0) + 0) + 0), SqDist's
// four-accumulator pattern for the specialized dim 8 and the generic
// fallback — and scans points in ascending index order with the same
// comparison senses as the loops they replace (strict < for argmin,
// strict > for argmax). Callers therefore get bit-identical centers, radii
// and assignments, just faster. The kernels_test.go property tests pin
// this against SqDist/SqDistNaive for dims 1–16.

package metric

import "math"

// SqDistsInto writes the squared Euclidean distance from q to every point
// in [lo, hi) into dst, with dst[i-lo] receiving point i's distance. dst
// must have length at least hi-lo; q must have length ds.Dim.
func SqDistsInto(dst []float64, ds *Dataset, lo, hi int, q []float64) {
	if hi <= lo {
		return
	}
	dim := ds.Dim
	data := ds.Data[lo*dim : hi*dim]
	dst = dst[:hi-lo]
	switch dim {
	case 1:
		q0 := q[0]
		for i := range dst {
			d0 := data[i] - q0
			dst[i] = d0 * d0
		}
	case 2:
		q0, q1 := q[0], q[1]
		j := 0
		for i := range dst {
			d0 := data[j] - q0
			d1 := data[j+1] - q1
			j += 2
			dst[i] = d0*d0 + d1*d1
		}
	case 3:
		q0, q1, q2 := q[0], q[1], q[2]
		j := 0
		for i := range dst {
			d0 := data[j] - q0
			d1 := data[j+1] - q1
			d2 := data[j+2] - q2
			j += 3
			dst[i] = d0*d0 + d1*d1 + d2*d2
		}
	case 4:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		j := 0
		for i := range dst {
			d0 := data[j] - q0
			d1 := data[j+1] - q1
			d2 := data[j+2] - q2
			d3 := data[j+3] - q3
			j += 4
			dst[i] = ((d0*d0 + d1*d1) + d2*d2) + d3*d3
		}
	case 8:
		j := 0
		for i := range dst {
			dst[i] = sqDist8(data[j:j+8], q)
			j += 8
		}
	default:
		j := 0
		for i := range dst {
			dst[i] = SqDist(data[j:j+dim:j+dim], q)
			j += dim
		}
	}
}

// NearestInRange returns the index of the point in [lo, hi) nearest to q
// and its squared distance, breaking ties toward the lower index (strict <
// from +Inf, matching the assignment loops it replaces). It returns
// (lo, +Inf) on an empty range.
func NearestInRange(ds *Dataset, lo, hi int, q []float64) (int, float64) {
	best, bestSq := lo, math.Inf(1)
	if hi <= lo {
		return best, bestSq
	}
	dim := ds.Dim
	data := ds.Data[lo*dim : hi*dim]
	switch dim {
	case 1:
		q0 := q[0]
		for i := lo; i < hi; i++ {
			d0 := data[i-lo] - q0
			if sq := d0 * d0; sq < bestSq {
				bestSq = sq
				best = i
			}
		}
	case 2:
		q0, q1 := q[0], q[1]
		j := 0
		for i := lo; i < hi; i++ {
			d0 := data[j] - q0
			d1 := data[j+1] - q1
			j += 2
			if sq := d0*d0 + d1*d1; sq < bestSq {
				bestSq = sq
				best = i
			}
		}
	case 3:
		q0, q1, q2 := q[0], q[1], q[2]
		j := 0
		for i := lo; i < hi; i++ {
			d0 := data[j] - q0
			d1 := data[j+1] - q1
			d2 := data[j+2] - q2
			j += 3
			if sq := d0*d0 + d1*d1 + d2*d2; sq < bestSq {
				bestSq = sq
				best = i
			}
		}
	case 4:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		j := 0
		for i := lo; i < hi; i++ {
			d0 := data[j] - q0
			d1 := data[j+1] - q1
			d2 := data[j+2] - q2
			d3 := data[j+3] - q3
			j += 4
			if sq := ((d0*d0 + d1*d1) + d2*d2) + d3*d3; sq < bestSq {
				bestSq = sq
				best = i
			}
		}
	case 8:
		j := 0
		for i := lo; i < hi; i++ {
			if sq := sqDist8(data[j:j+8], q); sq < bestSq {
				bestSq = sq
				best = i
			}
			j += 8
		}
	default:
		j := 0
		for i := lo; i < hi; i++ {
			if sq := SqDist(data[j:j+dim:j+dim], q); sq < bestSq {
				bestSq = sq
				best = i
			}
			j += dim
		}
	}
	return best, bestSq
}

// RelaxFarthest performs one Gonzalez relaxation step over [lo, hi): for
// every point i it lowers minSq[i] to the squared distance from q when that
// is smaller, and returns the index realizing the maximum of the updated
// minSq over the range together with that maximum. Ties break toward the
// lower index (strict > from -1, matching the traversal loops it
// replaces). It returns (lo, -1) on an empty range. minSq is indexed by
// absolute point index, exactly like the callers' arrays.
func RelaxFarthest(ds *Dataset, lo, hi int, q []float64, minSq []float64) (int, float64) {
	next, far := lo, -1.0
	if hi <= lo {
		return next, far
	}
	dim := ds.Dim
	data := ds.Data[lo*dim : hi*dim]
	switch dim {
	case 1:
		q0 := q[0]
		for i := lo; i < hi; i++ {
			d0 := data[i-lo] - q0
			m := minSq[i]
			if sq := d0 * d0; sq < m {
				m = sq
				minSq[i] = sq
			}
			if m > far {
				far = m
				next = i
			}
		}
	case 2:
		q0, q1 := q[0], q[1]
		j := 0
		for i := lo; i < hi; i++ {
			d0 := data[j] - q0
			d1 := data[j+1] - q1
			j += 2
			m := minSq[i]
			if sq := d0*d0 + d1*d1; sq < m {
				m = sq
				minSq[i] = sq
			}
			if m > far {
				far = m
				next = i
			}
		}
	case 3:
		q0, q1, q2 := q[0], q[1], q[2]
		j := 0
		for i := lo; i < hi; i++ {
			d0 := data[j] - q0
			d1 := data[j+1] - q1
			d2 := data[j+2] - q2
			j += 3
			m := minSq[i]
			if sq := d0*d0 + d1*d1 + d2*d2; sq < m {
				m = sq
				minSq[i] = sq
			}
			if m > far {
				far = m
				next = i
			}
		}
	case 4:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		j := 0
		for i := lo; i < hi; i++ {
			d0 := data[j] - q0
			d1 := data[j+1] - q1
			d2 := data[j+2] - q2
			d3 := data[j+3] - q3
			j += 4
			m := minSq[i]
			if sq := ((d0*d0 + d1*d1) + d2*d2) + d3*d3; sq < m {
				m = sq
				minSq[i] = sq
			}
			if m > far {
				far = m
				next = i
			}
		}
	case 8:
		j := 0
		for i := lo; i < hi; i++ {
			m := minSq[i]
			if sq := sqDist8(data[j:j+8], q); sq < m {
				m = sq
				minSq[i] = sq
			}
			j += 8
			if m > far {
				far = m
				next = i
			}
		}
	default:
		j := 0
		for i := lo; i < hi; i++ {
			m := minSq[i]
			if sq := SqDist(data[j:j+dim:j+dim], q); sq < m {
				m = sq
				minSq[i] = sq
			}
			j += dim
			if m > far {
				far = m
				next = i
			}
		}
	}
	return next, far
}

// RelaxFarthestAssign is RelaxFarthest with assignment carry: whenever the
// relaxation lowers minSq[i] it also records assign[i] = c (the caller's
// identifier for the relaxing center, typically its selection position).
// Because the relaxation is strict (<), a later center at exactly the
// distance of an earlier one does not take the point — the assignment stays
// with the earliest center realizing the minimum, which is precisely the
// lowest-position tie-break of the post-hoc assignment scan
// (NearestInRange's strict < from +Inf). Squared distances come from
// SqDistsInto, whose per-dimension accumulation order is identical to the
// other kernels', so after the last center both minSq and assign are
// bit-identical to what a full evaluation pass over the final center set
// would produce: a Gonzalez caller threading this through its traversal gets
// the complete assignment for free instead of paying a second O(n·k) pass.
// scratch must have length at least hi-lo; it is overwritten each call.
func RelaxFarthestAssign(ds *Dataset, lo, hi int, q []float64, c int, minSq []float64, assign []int, scratch []float64) (int, float64) {
	next, far := lo, -1.0
	if hi <= lo {
		return next, far
	}
	scratch = scratch[:hi-lo]
	SqDistsInto(scratch, ds, lo, hi, q)
	for i := lo; i < hi; i++ {
		m := minSq[i]
		if sq := scratch[i-lo]; sq < m {
			m = sq
			minSq[i] = sq
			assign[i] = c
		}
		if m > far {
			far = m
			next = i
		}
	}
	return next, far
}

// sqDist8 is the dim-8 body, reproducing SqDist's four-accumulator unroll
// (two unrolled iterations) bit for bit.
func sqDist8(p, q []float64) float64 {
	_ = p[7]
	_ = q[7]
	d0 := p[0] - q[0]
	d1 := p[1] - q[1]
	d2 := p[2] - q[2]
	d3 := p[3] - q[3]
	d4 := p[4] - q[4]
	d5 := p[5] - q[5]
	d6 := p[6] - q[6]
	d7 := p[7] - q[7]
	s0 := d0*d0 + d4*d4
	s1 := d1*d1 + d5*d5
	s2 := d2*d2 + d6*d6
	s3 := d3*d3 + d7*d7
	return ((s0 + s1) + s2) + s3
}
