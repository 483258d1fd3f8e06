// Sorted-projection nearest-neighbour search (Friedman, Baskett & Shustek,
// "An Algorithm for Finding Nearest Neighbors", IEEE Trans. Computers,
// 1975).
//
// A Sweep gathers a point set with its rows sorted by one coordinate, the
// one of largest range. A query binary-searches its own coordinate among
// the sorted keys, walks outwards both ways, and stops in each direction
// once the squared gap in that coordinate alone rules out every row
// further out. At low dimension most rows are never evaluated: at dim 2 a
// nearest-center query over k = 50 centers evaluates about 8–9 of them.
//
// The search is exact, bit for bit. Every squared distance it evaluates
// has SqDist's floating-point order. The squared gap is the square of the
// very difference SqDist squares for the sort coordinate (a − b and b − a
// differ only in sign), and SqDist adds non-negative terms under monotone
// rounding, so a row's squared distance is never below its squared gap.
// Gaps grow monotonically outwards from the query. So a row past the stop
// could not have changed the answer. Two queries use the layout:
//
//   - Lower, EIM's value-only min(seed, nearest squared distance). It stops
//     when the squared gap reaches the best value so far (≥), since a row
//     that only ties cannot lower a minimum.
//   - nearest, the Index's argmin. It keeps the plain scan's
//     lowest-position tie-break, so it stops only when the squared gap
//     exceeds the best squared distance (strict >): a row at exactly the
//     best distance is still visited, and wins if its position is lower.

package metric

import (
	"math"
	"slices"
)

// Sweep is a point set gathered for sorted-projection nearest-neighbour
// queries. It is immutable after construction and safe for concurrent
// readers.
type Sweep struct {
	dim, axis int       // the rows' dimension and the sort coordinate
	rows      []float64 // the rows in ascending key order, row-major
	order     []sortKey // order[i] is row i's key and input position
}

// sortKey is a row's coordinate on the sort axis and its position in the
// input.
type sortKey struct {
	key float64
	pos int
}

// NewSweep gathers the rows of set sorted by the coordinate with the
// largest range among them (the lowest such coordinate on a tie).
// Coordinates must be finite, as FromPoints and the CSV reader ensure, so
// the keys are totally ordered.
func NewSweep(set *Dataset) *Sweep {
	lo, hi := set.Bounds()
	axis := 0
	for c := range lo {
		if hi[c]-lo[c] > hi[axis]-lo[axis] {
			axis = c
		}
	}
	return sweepOn(set, axis)
}

// sweepOn gathers the rows of set sorted by coordinate axis.
func sweepOn(set *Dataset, axis int) *Sweep {
	dim := set.Dim
	s := &Sweep{dim: dim, axis: axis, rows: make([]float64, len(set.Data)), order: make([]sortKey, set.N)}
	for i := range s.order {
		s.order[i] = sortKey{set.Data[i*dim+axis], i}
	}
	slices.SortFunc(s.order, func(a, b sortKey) int {
		if a.key < b.key {
			return -1
		}
		if a.key > b.key {
			return 1
		}
		return 0
	})
	for i, o := range s.order {
		copy(s.rows[i*dim:(i+1)*dim], set.At(o.pos))
	}
	return s
}

// search returns the first row whose key is not below x, or the row count
// if there is none. It is sort.SearchFloat64s without a closure call per
// probe, which took about a fifth of EIM's CPU in a profile.
func (s *Sweep) search(x float64) int {
	lo, hi := 0, len(s.order)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if s.order[h].key < x {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// sqTo returns the squared distance from row i to q.
func (s *Sweep) sqTo(i int, q []float64) float64 {
	return SqDist(s.rows[i*s.dim:(i+1)*s.dim:(i+1)*s.dim], q)
}

// Lower returns min(seed, the squared distance from q to its nearest row),
// bit for bit what a scan of every row would give.
func (s *Sweep) Lower(q []float64, seed float64) float64 {
	if s.dim == 2 {
		return s.lower2(q, seed)
	}
	best := seed
	x := q[s.axis]
	mid := s.search(x)
	for i := mid; i < len(s.order); i++ {
		if g := s.order[i].key - x; g*g >= best {
			break
		}
		if sq := s.sqTo(i, q); sq < best {
			best = sq
		}
	}
	for i := mid - 1; i >= 0; i-- {
		if g := x - s.order[i].key; g*g >= best {
			break
		}
		if sq := s.sqTo(i, q); sq < best {
			best = sq
		}
	}
	return best
}

// lower2 is Lower with the dim-2 distance inlined, in SqDist's order.
func (s *Sweep) lower2(q []float64, seed float64) float64 {
	best := seed
	order, rows := s.order, s.rows[:2*len(s.order)]
	q0, q1 := q[0], q[1]
	x := q[s.axis]
	mid := s.search(x)
	for i := mid; i < len(order); i++ {
		if g := order[i].key - x; g*g >= best {
			break
		}
		d0 := rows[2*i] - q0
		d1 := rows[2*i+1] - q1
		if sq := d0*d0 + d1*d1; sq < best {
			best = sq
		}
	}
	for i := mid - 1; i >= 0; i-- {
		if g := x - order[i].key; g*g >= best {
			break
		}
		d0 := rows[2*i] - q0
		d1 := rows[2*i+1] - q1
		if sq := d0*d0 + d1*d1; sq < best {
			best = sq
		}
	}
	return best
}

// nearest returns the input position of the row nearest to q, its squared
// distance, and the number of distances evaluated. The position and the
// squared distance are those NearestInRange(set, 0, set.N, q) returns over
// the input rows: ties go to the lowest position, and when no squared
// distance is below +Inf (no rows, a NaN coordinate, or distances that
// overflow) the answer is (0, +Inf).
func (s *Sweep) nearest(q []float64) (int, float64, int64) {
	switch s.dim {
	case 1:
		return s.nearest1(q[0])
	case 2:
		return s.nearest2(q)
	}
	best, bestSq, evals := 0, math.Inf(1), int64(0)
	x := q[s.axis]
	mid := s.search(x)
	for i := mid; i < len(s.order); i++ {
		if g := s.order[i].key - x; g*g > bestSq {
			break
		}
		sq := s.sqTo(i, q)
		evals++
		if sq < bestSq || sq == bestSq && s.order[i].pos < best {
			best, bestSq = s.order[i].pos, sq
		}
	}
	for i := mid - 1; i >= 0; i-- {
		if g := x - s.order[i].key; g*g > bestSq {
			break
		}
		sq := s.sqTo(i, q)
		evals++
		if sq < bestSq || sq == bestSq && s.order[i].pos < best {
			best, bestSq = s.order[i].pos, sq
		}
	}
	return best, bestSq, evals
}

// nearest1 is nearest at dim 1, where the key is the row and the squared
// gap is the squared distance, SqDist's lone d·d.
func (s *Sweep) nearest1(x float64) (int, float64, int64) {
	best, bestSq, evals := 0, math.Inf(1), int64(0)
	order := s.order
	mid := s.search(x)
	for i := mid; i < len(order); i++ {
		g := order[i].key - x
		sq := g * g
		if sq > bestSq {
			break
		}
		evals++
		if sq < bestSq || sq == bestSq && order[i].pos < best {
			best, bestSq = order[i].pos, sq
		}
	}
	for i := mid - 1; i >= 0; i-- {
		g := x - order[i].key
		sq := g * g
		if sq > bestSq {
			break
		}
		evals++
		if sq < bestSq || sq == bestSq && order[i].pos < best {
			best, bestSq = order[i].pos, sq
		}
	}
	return best, bestSq, evals
}

// nearest2 is nearest with the dim-2 distance inlined, in SqDist's order.
func (s *Sweep) nearest2(q []float64) (int, float64, int64) {
	best, bestSq, evals := 0, math.Inf(1), int64(0)
	order, rows := s.order, s.rows[:2*len(s.order)]
	q0, q1 := q[0], q[1]
	x := q[s.axis]
	mid := s.search(x)
	for i := mid; i < len(order); i++ {
		if g := order[i].key - x; g*g > bestSq {
			break
		}
		d0 := rows[2*i] - q0
		d1 := rows[2*i+1] - q1
		evals++
		if sq := d0*d0 + d1*d1; sq < bestSq || sq == bestSq && order[i].pos < best {
			best, bestSq = order[i].pos, sq
		}
	}
	for i := mid - 1; i >= 0; i-- {
		if g := x - order[i].key; g*g > bestSq {
			break
		}
		d0 := rows[2*i] - q0
		d1 := rows[2*i+1] - q1
		evals++
		if sq := d0*d0 + d1*d1; sq < bestSq || sq == bestSq && order[i].pos < best {
			best, bestSq = order[i].pos, sq
		}
	}
	return best, bestSq, evals
}
