// Sorted-projection nearest-neighbour search (Friedman, Baskett & Shustek,
// "An Algorithm for Finding Nearest Neighbors", IEEE Trans. Computers,
// 1975).
//
// A Sweep gathers a point set with its rows sorted by one coordinate, the
// one of largest range. A query finds where its own coordinate falls among
// the sorted keys, walks outwards both ways, and stops in each direction
// once the squared gap in that coordinate alone rules out every row
// further out. At low dimension most rows are never evaluated: at dim 2 a
// nearest-center query over k = 50 centers evaluates about 8–9 of them.
//
// The start of the walk is found in O(1) expected time. NewSweep cuts the
// key range into one bucket per row, bucket(x) = ⌊(x − key₀)·scale⌋
// clamped to the last bucket, and records the first row of each bucket.
// The bucket is monotone in x, so every key in a lower bucket is below x
// and every key in a higher bucket is above it: a binary search inside x's
// own bucket finds the first key not below x, exactly as a search of all
// the keys would. Where the scale is 0 or overflows (one distinct key, or
// a span too wide or too narrow for float64) there is no table, and the
// search covers every row.
//
// The search is exact, bit for bit. Every squared distance it evaluates
// has SqDist's floating-point order. The squared gap is the square of the
// very difference SqDist squares for the sort coordinate (a − b and b − a
// differ only in sign), and SqDist adds non-negative terms under monotone
// rounding, so a row's squared distance is never below its squared gap.
// Gaps grow monotonically outwards from the query. So a row past the stop
// could not have changed the answer. Three queries use the layout:
//
//   - Lower, EIM's value-only min(seed, nearest squared distance). It stops
//     when the squared gap reaches the best value so far (≥), since a row
//     that only ties cannot lower a minimum. It also takes a cut: EIM's
//     removal round only asks whether a record lies within the pivot's
//     distance, so once the best value's square root is ≤ the cut the walk
//     returns it without looking further. Above the cut the answer is
//     still the exact minimum, so a record that survives carries the same
//     value as under a full scan.
//   - nearest, the Index's argmin. It keeps the plain scan's
//     lowest-position tie-break, so it stops only when the squared gap
//     exceeds the best squared distance (strict >): a row at exactly the
//     best distance is still visited, and wins if its position is lower.
//   - Within, the streaming sketch's coverage test: is some row within
//     squared distance limSq of q? It returns true at the first row whose
//     squared distance is ≤ limSq and stops a direction once the squared
//     gap exceeds limSq (strict >). That stop is exact: every row further
//     out has a squared gap, hence a squared distance, above limSq, while a
//     row whose gap² equals limSq may itself sit at exactly limSq and is
//     still visited. Within needs no search either: the walk starts at the
//     first row of q's bucket, below which every key is below q's, and
//     walks up past the bucket's keys below q's without stopping on them.

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
	keys      []float64 // keys[i] is row i's coordinate on the sort axis
	pos       []int     // pos[i] is row i's position in the input
	// start[b] is the first row whose bucket is b or above, for the
	// len(start)-1 buckets of width 1/scale from keys[0]; nil when the
	// keys admit no table (scale 0).
	start []int32
	scale float64
}

// sortKey is a row's coordinate on the sort axis and its position in the
// input, the element NewSweep sorts.
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

// sweepOn gathers the rows of set sorted by coordinate axis and builds the
// bucket table over their keys.
func sweepOn(set *Dataset, axis int) *Sweep {
	dim, n := set.Dim, set.N
	order := make([]sortKey, n)
	for i := range order {
		order[i] = sortKey{set.Data[i*dim+axis], i}
	}
	slices.SortFunc(order, func(a, b sortKey) int {
		if a.key < b.key {
			return -1
		}
		if a.key > b.key {
			return 1
		}
		return 0
	})
	s := &Sweep{dim: dim, axis: axis, rows: make([]float64, len(set.Data)), keys: make([]float64, n), pos: make([]int, n)}
	for i, o := range order {
		s.keys[i], s.pos[i] = o.key, o.pos
		copy(s.rows[i*dim:(i+1)*dim], set.At(o.pos))
	}
	if n < 2 || n > math.MaxInt32 {
		return s
	}
	// One bucket per row. One distinct key or an overflowing span gives a
	// zero scale, a subnormal span an infinite one: neither gets a table.
	scale := float64(n) / (s.keys[n-1] - s.keys[0])
	if !(scale > 0) || math.IsInf(scale, 1) {
		return s
	}
	s.scale, s.start = scale, make([]int32, n+1)
	b := 0
	for i, key := range s.keys {
		for kb := s.bucket(key); b < kb; {
			b++
			s.start[b] = int32(i)
		}
	}
	for b < n {
		b++
		s.start[b] = int32(n)
	}
	return s
}

// bucket returns the bucket of a value x ≥ keys[0] in the start table:
// ⌊(x − keys[0])·scale⌋, clamped to the last bucket (which also takes
// +Inf). It is monotone in x.
func (s *Sweep) bucket(x float64) int {
	b := len(s.start) - 2
	if f := (x - s.keys[0]) * s.scale; f < float64(b) {
		b = int(f)
	}
	return b
}

// search returns the first row whose key is not below x, or the row count
// if there is none, as sort.SearchFloat64s(keys, x) does; for a NaN x it
// returns 0. Only x's own bucket is binary-searched; see the file comment.
func (s *Sweep) search(x float64) int {
	keys := s.keys
	if len(keys) == 0 || !(x > keys[0]) {
		return 0
	}
	lo, hi := 1, len(keys)
	if s.start != nil {
		b := s.bucket(x)
		lo, hi = int(s.start[b]), int(s.start[b+1])
	}
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if keys[h] < x {
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

// Lower returns m = min(seed, the squared distance from q to its nearest
// row), bit for bit what a scan of every row would give, whenever √m >
// cut. Otherwise it may stop early and return any value v ≥ m with √v ≤
// cut: seed itself when √seed ≤ cut, else the first improvement that
// falls within the cut. A negative or NaN cut never stops the walk.
func (s *Sweep) Lower(q []float64, seed, cut float64) float64 {
	if math.Sqrt(seed) <= cut {
		return seed
	}
	if s.dim == 2 {
		return s.lower2(q, seed, cut)
	}
	// cut2 only filters: the square may overflow or underflow, so the
	// square root decides.
	best, cut2 := seed, cut*cut
	x := q[s.axis]
	mid := s.search(x)
	for i := mid; i < len(s.keys); i++ {
		if g := s.keys[i] - x; g*g >= best {
			break
		}
		if sq := s.sqTo(i, q); sq < best {
			if best = sq; sq <= cut2 && math.Sqrt(sq) <= cut {
				return best
			}
		}
	}
	for i := mid - 1; i >= 0; i-- {
		if g := x - s.keys[i]; g*g >= best {
			break
		}
		if sq := s.sqTo(i, q); sq < best {
			if best = sq; sq <= cut2 && math.Sqrt(sq) <= cut {
				return best
			}
		}
	}
	return best
}

// lower2 is Lower with the dim-2 distance inlined, in SqDist's order.
func (s *Sweep) lower2(q []float64, seed, cut float64) float64 {
	best, cut2 := seed, cut*cut
	keys, rows := s.keys, s.rows[:2*len(s.keys)]
	q0, q1 := q[0], q[1]
	x := q[s.axis]
	mid := s.search(x)
	for i := mid; i < len(keys); i++ {
		if g := keys[i] - x; g*g >= best {
			break
		}
		d0 := rows[2*i] - q0
		d1 := rows[2*i+1] - q1
		if sq := d0*d0 + d1*d1; sq < best {
			if best = sq; sq <= cut2 && math.Sqrt(sq) <= cut {
				return best
			}
		}
	}
	for i := mid - 1; i >= 0; i-- {
		if g := x - keys[i]; g*g >= best {
			break
		}
		d0 := rows[2*i] - q0
		d1 := rows[2*i+1] - q1
		if sq := d0*d0 + d1*d1; sq < best {
			if best = sq; sq <= cut2 && math.Sqrt(sq) <= cut {
				return best
			}
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
	for i := mid; i < len(s.keys); i++ {
		if g := s.keys[i] - x; g*g > bestSq {
			break
		}
		sq := s.sqTo(i, q)
		evals++
		if sq < bestSq || sq == bestSq && s.pos[i] < best {
			best, bestSq = s.pos[i], sq
		}
	}
	for i := mid - 1; i >= 0; i-- {
		if g := x - s.keys[i]; g*g > bestSq {
			break
		}
		sq := s.sqTo(i, q)
		evals++
		if sq < bestSq || sq == bestSq && s.pos[i] < best {
			best, bestSq = s.pos[i], sq
		}
	}
	return best, bestSq, evals
}

// nearest1 is nearest at dim 1, where the key is the row and the squared
// gap is the squared distance, SqDist's lone d·d.
func (s *Sweep) nearest1(x float64) (int, float64, int64) {
	best, bestSq, evals := 0, math.Inf(1), int64(0)
	keys, pos := s.keys, s.pos
	mid := s.search(x)
	for i := mid; i < len(keys); i++ {
		g := keys[i] - x
		sq := g * g
		if sq > bestSq {
			break
		}
		evals++
		if sq < bestSq || sq == bestSq && pos[i] < best {
			best, bestSq = pos[i], sq
		}
	}
	for i := mid - 1; i >= 0; i-- {
		g := x - keys[i]
		sq := g * g
		if sq > bestSq {
			break
		}
		evals++
		if sq < bestSq || sq == bestSq && pos[i] < best {
			best, bestSq = pos[i], sq
		}
	}
	return best, bestSq, evals
}

// nearest2 is nearest with the dim-2 distance inlined, in SqDist's order.
func (s *Sweep) nearest2(q []float64) (int, float64, int64) {
	best, bestSq, evals := 0, math.Inf(1), int64(0)
	keys, pos, rows := s.keys, s.pos, s.rows[:2*len(s.keys)]
	q0, q1 := q[0], q[1]
	x := q[s.axis]
	mid := s.search(x)
	for i := mid; i < len(keys); i++ {
		if g := keys[i] - x; g*g > bestSq {
			break
		}
		d0 := rows[2*i] - q0
		d1 := rows[2*i+1] - q1
		evals++
		if sq := d0*d0 + d1*d1; sq < bestSq || sq == bestSq && pos[i] < best {
			best, bestSq = pos[i], sq
		}
	}
	for i := mid - 1; i >= 0; i-- {
		if g := x - keys[i]; g*g > bestSq {
			break
		}
		d0 := rows[2*i] - q0
		d1 := rows[2*i+1] - q1
		evals++
		if sq := d0*d0 + d1*d1; sq < bestSq || sq == bestSq && pos[i] < best {
			best, bestSq = pos[i], sq
		}
	}
	return best, bestSq, evals
}

// from returns a row where a walk for x may start without a search: every
// row below it has a key below x. It is the first row of x's bucket, since
// the buckets below x's hold only keys below x; without a table, or for an
// x not above keys[0], it is search(x). Within starts there: on dim-2 GAU
// pushes (BenchmarkStreamPush, 10 alternating pairs on a 2-vCPU host) the
// medians were 34.6, 34.7 and 30.8 ns per push at k = 10, 50 and 100
// against 42.5, 48.8 and 48.9 ns for a walk from search(x), faster in 10
// of 10 pairs at each k.
func (s *Sweep) from(x float64) int {
	if s.start == nil || !(x > s.keys[0]) {
		return s.search(x)
	}
	return int(s.start[s.bucket(x)])
}

// Within reports whether some row lies within squared distance limSq of q:
// exactly whether some row has SqDist(row, q) ≤ limSq, so false when q has
// a NaN coordinate or limSq is NaN. The walk up from from(x) may meet keys
// below x, whose gaps shrink as it climbs, so only a positive gap stops it.
func (s *Sweep) Within(q []float64, limSq float64) bool {
	if s.dim == 2 {
		return s.within2(q, limSq)
	}
	x := q[s.axis]
	mid := s.from(x)
	for i := mid; i < len(s.keys); i++ {
		if g := s.keys[i] - x; g*g > limSq {
			if g > 0 {
				break
			}
			continue
		}
		if s.sqTo(i, q) <= limSq {
			return true
		}
	}
	for i := mid - 1; i >= 0; i-- {
		if g := x - s.keys[i]; g*g > limSq {
			break
		}
		if s.sqTo(i, q) <= limSq {
			return true
		}
	}
	return false
}

// within2 is Within with the dim-2 distance inlined, in SqDist's order.
func (s *Sweep) within2(q []float64, limSq float64) bool {
	keys, rows := s.keys, s.rows[:2*len(s.keys)]
	q0, q1 := q[0], q[1]
	x := q[s.axis]
	mid := s.from(x)
	for i := mid; i < len(keys); i++ {
		if g := keys[i] - x; g*g > limSq {
			if g > 0 {
				break
			}
			continue
		}
		d0 := rows[2*i] - q0
		d1 := rows[2*i+1] - q1
		if d0*d0+d1*d1 <= limSq {
			return true
		}
	}
	for i := mid - 1; i >= 0; i-- {
		if g := x - keys[i]; g*g > limSq {
			break
		}
		d0 := rows[2*i] - q0
		d1 := rows[2*i+1] - q1
		if d0*d0+d1*d1 <= limSq {
			return true
		}
	}
	return false
}
