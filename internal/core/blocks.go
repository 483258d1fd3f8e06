package core

import (
	"math"

	"kcenter/internal/metric"
)

// The blocked layout of the farthest-first traversal.
//
// A plain traversal relaxes all n points against each of the k centers. Most
// of those relaxations change nothing: once a point has a center nearby, a
// new center far away cannot come closer. The blocked layout finds such
// points a block at a time. It sorts the input once, with a stable counting
// sort, into the cells of a Morton-ordered metric.Grid, so that runs of
// consecutive points are spatially compact, copies the coordinates into that
// order and cuts the copy into blocks of blockSize points. Each block keeps its
// bounding box and the largest squared distance of its points to their
// nearest center so far. A new center q skips every block whose box is no
// closer to q than that largest distance.
//
// The skip is exact, with no slack. Let z be q clamped to the box. For every
// coordinate and every point x of the box, |z−q| ≤ |x−q| holds exactly, and
// rounding is monotone, so the computed difference, its square and every
// partial sum are no larger for z than for x, as long as both are summed in
// the same order. relaxBlock sums in metric.SqDist's order, and the bound is
// metric.SqDist(z, q). So every point x of a skipped block has a computed
// d²(x, q) ≥ bound ≥ the block's maximum ≥ minSq[x], and the traversal's
// strict-< relax would not have changed it. minSq, the assignment and the
// argmax (ties broken toward the lowest input row) are therefore bit for bit
// those of a plain scan, and so are the centers.

const (
	// blockSize is the number of points a block holds (the last may hold
	// fewer). Its box test costs about as much as one point's relaxation.
	blockSize = 512
	// minBlockedN is the smallest input the layout is used for: below 16
	// blocks the box tests prune too little to pay for it.
	minBlockedN = 16 * blockSize
	// The grid is the smallest 2^b × 2^b with at most pointsPerCell points
	// per cell on average, up to b = maxGridBits, so its count array holds
	// at most n/4 entries.
	pointsPerCell = 16
	maxGridBits   = metric.MaxGridBits
)

// preferBlocks reports whether the blocked traversal is expected to beat
// the plain one for k centers over n points of dimension dim. Both return
// bit-identical results; this only picks the faster.
//
// The layout costs a fixed number of passes over the input (bounds, the
// counting sort, the gathered copy, the boxes, and putting MinDist and the
// assignment back in row order) and saves a share of every relaxation pass
// that grows with k. Fitted from medians of 7 runs, plain against blocked,
// on GAU (k′ = 25) and UNIF inputs on a 2-vCPU host, and checked against
// BenchmarkGonzalezShapes and BenchmarkGonzalez:
//
//   - dim 2, GonzalezAssign, n ∈ {10⁴, 5·10⁴, 2·10⁵, 10⁶}: blocked takes
//     0.29–0.85 of the plain time at every k ∈ {20, 25, 32, 50} (0.29 at
//     the batch shape, GAU n = 10⁶, k = 50), is mixed at k = 16
//     (0.66–1.31) and mostly loses at k = 10 (up to 1.8×).
//   - The traversal without the assignment carry, dim 1, n ∈ {10⁴ … 10⁶},
//     k = 25: blocked takes 0.22–0.44.
//   - The same at dim ≥ 3 (3, 4, 5, 8; n = 2·10⁵; k ∈ {16, 25, 50, 100}):
//     the grid orders two coordinates, so a box spans the whole range of
//     the others. On UNIF blocked was 1.13–2.16× slower in 15 of the 16
//     cells, though GAU won in 14.
//
// n must also fit the layout's int32 slot indices.
func preferBlocks(n, k, dim int) bool {
	return dim <= 2 && k >= 20 && n >= minBlockedN && n <= math.MaxInt32
}

// blocks is the blocked layout of one traversal's input: the points in
// Morton order, cut into blocks of blockSize.
type blocks struct {
	dim  int
	data []float64 // coordinates in slot order, n·dim
	// orig[j] is the input row of slot j (a dataset index, or a position
	// in the caller's idx) and slot[i] the slot of input row i.
	orig, slot []int32
	// minSq[j] is slot j's squared distance to its nearest center so far;
	// assign[j] that center's selection position (nil without the carry).
	minSq  []float64
	assign []int
	// Per block k, over slots [k·blockSize, min((k+1)·blockSize, n)):
	// box[2·dim·k:] holds the dim lowest then the dim highest coordinates,
	// max[k] the largest minSq and arg[k] the slot holding it with the
	// lowest input row.
	box []float64
	max []float64
	arg []int
	z   []float64 // scratch: the center clamped to a box
}

// newBlocks lays out the n points of ds named by idx (every point of ds
// when idx is nil), with dim ≤ 2. It returns nil when a coordinate is NaN or
// ±Inf: the box bound then no longer holds, and the plain traversal handles
// such input as it always has.
func newBlocks(ds *metric.Dataset, idx []int, wantAssign bool) *blocks {
	dim := ds.Dim
	n := ds.N
	if idx != nil {
		n = len(idx)
	}
	// offset returns where row i's coordinates start in ds.Data.
	offset := func(i int) int {
		if idx != nil {
			i = idx[i]
		}
		return i * dim
	}

	// Bounds of every coordinate, and the finiteness check: x−x is 0 for
	// every finite x and NaN for NaN and ±Inf.
	lo := make([]float64, 2*dim)
	hi := lo[dim:]
	lo = lo[:dim]
	copy(lo, ds.Data[offset(0):])
	copy(hi, lo)
	for i := 0; i < n; i++ {
		o := offset(i)
		for d, x := range ds.Data[o : o+dim] {
			if x-x != 0 {
				return nil
			}
			if x < lo[d] {
				lo[d] = x
			}
			if x > hi[d] {
				hi[d] = x
			}
		}
	}
	bits := 0
	for bits < maxGridBits && n > pointsPerCell<<(2*bits) {
		bits++
	}
	g := metric.NewGrid(bits, lo, hi)

	b := &blocks{
		dim:   dim,
		data:  make([]float64, n*dim),
		orig:  make([]int32, n),
		slot:  make([]int32, n),
		minSq: make([]float64, n),
		z:     make([]float64, dim),
	}
	if wantAssign {
		b.assign = make([]int, n)
	}

	// The stable counting sort. minSq holds each row's cell until the
	// placing pass has read it.
	start := make([]int32, g.Side*g.Side+1)
	for i := 0; i < n; i++ {
		c := g.Cell(ds.Data[offset(i):])
		b.minSq[i] = float64(c)
		start[c+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	// The placing pass reads the rows in order and writes one stream per
	// occupied cell, which stays in cache where the points cluster.
	for i := 0; i < n; i++ {
		c := int(b.minSq[i])
		j := int(start[c])
		start[c]++
		b.orig[j], b.slot[i] = int32(i), int32(j)
		o := offset(i)
		for d, v := range ds.Data[o : o+dim] { // a loop: copy would call memmove
			b.data[j*dim+d] = v
		}
	}
	for j := range b.minSq {
		b.minSq[j] = math.Inf(1)
	}

	nb := (n + blockSize - 1) / blockSize
	b.box = make([]float64, 2*dim*nb)
	b.max = make([]float64, nb)
	b.arg = make([]int, nb)
	for k := range b.max {
		first, last := k*blockSize, min((k+1)*blockSize, n)
		box := b.box[2*dim*k : 2*dim*(k+1)]
		copy(box, b.data[first*dim:(first+1)*dim])
		copy(box[dim:], box)
		arg := first
		for j := first; j < last; j++ {
			for d, v := range b.data[j*dim : (j+1)*dim] {
				if v < box[d] {
					box[d] = v
				}
				if v > box[dim+d] {
					box[dim+d] = v
				}
			}
			if b.orig[j] < b.orig[arg] {
				arg = j
			}
		}
		// Every minSq starts at +Inf, so the block's farthest point is its
		// lowest input row.
		b.max[k], b.arg[k] = math.Inf(1), arg
	}
	return b
}

// relax is one round of the traversal against center q, the c-th center:
// it relaxes every block q may improve and returns the input row of the
// farthest point and its squared distance, exactly as metric.RelaxFarthest
// over the whole input would.
func (b *blocks) relax(q []float64, c int) (int, float64) {
	dim := b.dim
	far, best := -1.0, 0
	for k := range b.max {
		box := b.box[2*dim*k : 2*dim*(k+1)]
		for d := range b.z {
			b.z[d] = min(max(q[d], box[d]), box[dim+d])
		}
		if metric.SqDist(b.z, q) < b.max[k] {
			first, last := k*blockSize, min((k+1)*blockSize, len(b.orig))
			b.max[k], b.arg[k] = b.relaxBlock(first, last, q, c)
		}
		if m, a := b.max[k], b.arg[k]; m > far || (m == far && b.orig[a] < b.orig[best]) {
			far, best = m, a
		}
	}
	return int(b.orig[best]), far
}

// relaxBlock relaxes slots [first, last) against center q, the c-th center,
// in one fused pass: the squared distance in metric.SqDist's summation
// order, the strict-< update of minSq and the assignment, and the block's
// argmax with ties toward the lowest input row.
func (b *blocks) relaxBlock(first, last int, q []float64, c int) (float64, int) {
	far, arg := -1.0, first
	minSq, assign, orig := b.minSq, b.assign, b.orig
	if b.dim == 2 {
		data := b.data[2*first : 2*last]
		q0, q1 := q[0], q[1]
		i := 0
		for j := first; j < last; j++ {
			d0 := data[i] - q0
			d1 := data[i+1] - q1
			i += 2
			m := minSq[j]
			if sq := d0*d0 + d1*d1; sq < m {
				m = sq
				minSq[j] = sq
				if assign != nil {
					assign[j] = c
				}
			}
			if m > far {
				far, arg = m, j
			} else if m == far && orig[j] < orig[arg] {
				arg = j
			}
		}
		return far, arg
	}
	dim := b.dim
	for j := first; j < last; j++ {
		m := minSq[j]
		if sq := metric.SqDist(b.data[j*dim:(j+1)*dim:(j+1)*dim], q); sq < m {
			m = sq
			minSq[j] = sq
			if assign != nil {
				assign[j] = c
			}
		}
		if m > far {
			far, arg = m, j
		} else if m == far && orig[j] < orig[arg] {
			arg = j
		}
	}
	return far, arg
}

// rowOrder returns MinDist (the square roots of minSq) and the assignment
// in input-row order, reusing their slot-order arrays; nil for MinDist when
// wantMinDist is false. The coordinate copy is spent by then and stages
// each array for the gather. Assignment positions are below 2^31, so they
// round-trip through float64 exactly.
func (b *blocks) rowOrder(wantMinDist bool) ([]float64, []int) {
	stage := b.data[:len(b.orig)]
	var minDist []float64
	if wantMinDist {
		copy(stage, b.minSq)
		for i, j := range b.slot {
			b.minSq[i] = math.Sqrt(stage[j])
		}
		minDist = b.minSq
	}
	if b.assign != nil {
		for j, a := range b.assign {
			stage[j] = float64(a)
		}
		for i, j := range b.slot {
			b.assign[i] = int(stage[j])
		}
	}
	return minDist, b.assign
}
