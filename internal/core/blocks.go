package core

import (
	"math"
	"sync"

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
//
// The build and the rounds run on a fixed number of workers, each phase on
// its own goroutines joined by a WaitGroup. Worker w takes the w-th
// contiguous share of the rows (bounds, cells, the scatter, the return to
// row order) or of the blocks (boxes), and in each round every workers-th
// block from block w, so the blocks a new center reaches, which are
// neighbours in Morton order, land on every worker. The result does not
// depend on the worker count:
//
//   - The counting sort's starts are an exclusive prefix over (cell,
//     worker). Each worker places its rows in row order, and the workers'
//     shares are in row order, so every cell receives its rows in row order,
//     as one worker's pass would place them. The slots, the blocks and their
//     boxes are the same at every worker count.
//   - Each block and each slot belongs to one worker in a round, and the
//     round's argmax is the maximum over per-worker (largest minSq, lowest
//     input row) pairs under the same tie-break, which picks the same point
//     in any grouping.

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
// BenchmarkGonzalezShapes and BenchmarkGonzalez, both on one worker:
//
//   - dim 2, GonzalezAssign, n ∈ {10⁴, 5·10⁴, 2·10⁵, 10⁶}: blocked takes
//     0.29–0.85 of the plain time at every k ∈ {20, 25, 32, 50} (0.29 at
//     the batch shape, GAU n = 10⁶, k = 50), is mixed at k = 16
//     (0.66–1.31) and mostly loses at k = 10 (up to 1.8×).
//   - The traversal without the assignment carry, dim 1, n ∈ {10⁴ … 10⁶},
//     k = 25: blocked took 0.22–0.44 when the plain pass called SqDist
//     per point. Against the dim-1 kernel body, on GAU n ∈ {10⁵, 10⁶},
//     it takes 0.69–0.73 (best of 3 means of 10 runs).
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
	n, dim  int
	workers int
	data    []float64 // coordinates in slot order, n·dim
	// orig[j] is the input row of slot j (a dataset index, or a position
	// in the caller's idx) and slot[i] the slot of input row i (nil when
	// neither MinDist nor the assignment is wanted).
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

	// The round in progress: its center q, the c-th. Per worker w, z holds
	// the center clamped to a box at z[w·zStride(dim):], and far[w],
	// best[w] the largest minSq over the worker's blocks and its slot.
	q    []float64
	c    int
	z    []float64
	far  []float64
	best []int

	// Build and return-to-row-order state: the input (src, with idx as in
	// gonzalez, both dropped once built), the grid, worker w's lowest then
	// highest coordinates at bounds[2·dim·w:], whether its rows hold a NaN
	// or ±Inf, its count and then next slot of cell c at
	// start[w·cells+c], and whether MinDist is wanted.
	src         []float64
	idx         []int
	grid        metric.Grid
	bounds      []float64
	nonFinite   []bool
	start       []int32
	wantMinDist bool
}

// zStride is the spacing of the workers' clamp scratch in blocks.z: whole
// 64-byte cache lines, so that no two workers write one line per box test.
func zStride(dim int) int { return (dim + 7) &^ 7 }

// newBlocks lays out the n points of ds named by idx (every point of ds
// when idx is nil), with dim ≤ 2, on workers workers. Its arrays are those
// of reuse where they are large enough, so that a sequence of traversals on
// one Scratch allocates only when an input outgrows the last; reuse is nil
// for a fresh layout. A layout that wants MinDist or the assignment must be
// fresh: rowOrder hands its arrays to the Result. The row-order slots are
// kept only when one of them is wanted. newBlocks returns nil when a
// coordinate is NaN or ±Inf: the box bound then no longer holds, and the
// plain traversal handles such input as it always has.
func newBlocks(ds *metric.Dataset, idx []int, wantMinDist, wantAssign bool, workers int, reuse *blocks) *blocks {
	dim := ds.Dim
	n := ds.N
	if idx != nil {
		n = len(idx)
	}
	b := reuse
	if b == nil {
		b = new(blocks)
	}
	b.n, b.dim, b.workers = n, dim, workers
	b.src, b.idx = ds.Data, idx
	b.wantMinDist = wantMinDist
	b.bounds = grow(b.bounds, 2*dim*workers)
	b.nonFinite = grow(b.nonFinite, workers)
	clear(b.nonFinite)

	// Bounds of every coordinate, and the finiteness check. The merge
	// keeps the first of equal extremes, as one pass over the rows would.
	b.each((*blocks).boundsShare)
	lo, hi := b.bounds[:dim], b.bounds[dim:2*dim]
	for w := 0; w < workers; w++ {
		if b.nonFinite[w] {
			b.src, b.idx = nil, nil
			return nil
		}
		wb := b.bounds[2*dim*w:]
		for d := 0; d < dim; d++ {
			if x := wb[d]; x < lo[d] {
				lo[d] = x
			}
			if x := wb[dim+d]; x > hi[d] {
				hi[d] = x
			}
		}
	}
	bits := 0
	for bits < maxGridBits && n > pointsPerCell<<(2*bits) {
		bits++
	}
	b.grid = metric.NewGrid(bits, lo, hi)
	b.makeArrays(wantMinDist || wantAssign, wantAssign)

	// The stable counting sort: per-worker cell counts, their exclusive
	// prefix over (cell, worker), and the placing pass.
	cells := b.grid.Side * b.grid.Side
	b.start = grow(b.start, workers*cells)
	clear(b.start)
	b.each((*blocks).cellShare)
	var next int32
	for c := 0; c < cells; c++ {
		for w := 0; w < workers; w++ {
			s := &b.start[w*cells+c]
			next, *s = next+*s, next
		}
	}
	b.each((*blocks).scatterShare)

	nb := (n + blockSize - 1) / blockSize
	b.box = grow(b.box, 2*dim*nb)
	b.max = grow(b.max, nb)
	b.arg = grow(b.arg, nb)
	b.each((*blocks).boxShare)

	b.z = grow(b.z, workers*zStride(dim))
	b.far = grow(b.far, workers)
	b.best = grow(b.best, workers)
	b.src, b.idx = nil, nil
	return b
}

// makeArrays sizes the layout's per-point arrays for n points: the
// coordinate copy, orig and minSq always, slot when wantSlot, and a fresh
// zeroed assignment when wantAssign. A large make clears its memory, and
// takes its page faults, on the goroutine that calls it, so the arrays are
// made on the build workers, each whole on one, the largest first on the
// worker with the fewest bytes so far.
func (b *blocks) makeArrays(wantSlot, wantAssign bool) {
	n, dim := b.n, b.dim
	type array struct {
		bytes int
		alloc func()
	}
	// In descending size, as dim ≥ 1.
	arrays := []array{
		{8 * n * dim, func() { b.data = grow(b.data, n*dim) }},
		{8 * n, func() { b.minSq = grow(b.minSq, n) }},
	}
	if wantAssign {
		arrays = append(arrays, array{8 * n, func() { b.assign = make([]int, n) }})
	}
	arrays = append(arrays, array{4 * n, func() { b.orig = grow(b.orig, n) }})
	if wantSlot {
		arrays = append(arrays, array{4 * n, func() { b.slot = grow(b.slot, n) }})
	}
	if b.workers == 1 {
		for _, a := range arrays {
			a.alloc()
		}
		return
	}
	owner := make([]int, len(arrays))
	load := make([]int, b.workers)
	for i, a := range arrays {
		w := 0
		for v, l := range load {
			if l < load[w] {
				w = v
			}
		}
		owner[i] = w
		load[w] += a.bytes
	}
	b.each(func(_ *blocks, w int) {
		for i, a := range arrays {
			if owner[i] == w {
				a.alloc()
			}
		}
	})
}

// grow returns s resized to n, reusing its array when it is large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// each runs phase for every worker, worker 0 on the calling goroutine and
// each other on its own, and returns once all of them are done.
func (b *blocks) each(phase func(b *blocks, w int)) {
	if b.workers == 1 {
		phase(b, 0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(b.workers - 1)
	for w := 1; w < b.workers; w++ {
		go func(w int) {
			defer wg.Done()
			phase(b, w)
		}(w)
	}
	phase(b, 0)
	wg.Wait()
}

// share returns worker w's contiguous share [first, last) of n items.
func (b *blocks) share(n, w int) (int, int) {
	return n * w / b.workers, n * (w + 1) / b.workers
}

// rowOffset returns where input row i's coordinates start in the source
// data, of dimension dim, whose rows idx names (all of them when nil).
func rowOffset(idx []int, i, dim int) int {
	if idx != nil {
		i = idx[i]
	}
	return i * dim
}

// boundsShare finds the lowest and highest coordinates of worker w's rows
// and whether any is NaN or ±Inf: x−x is 0 for every finite x and NaN
// otherwise.
func (b *blocks) boundsShare(w int) {
	dim := b.dim
	lo := b.bounds[2*dim*w : 2*dim*w+dim]
	hi := b.bounds[2*dim*w+dim : 2*dim*(w+1)]
	for d := range lo {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
	first, last := b.share(b.n, w)
	for i := first; i < last; i++ {
		o := rowOffset(b.idx, i, dim)
		for d, x := range b.src[o : o+dim] {
			if x-x != 0 {
				b.nonFinite[w] = true
				return
			}
			if x < lo[d] {
				lo[d] = x
			}
			if x > hi[d] {
				hi[d] = x
			}
		}
	}
}

// cellShare counts worker w's rows per cell. minSq holds each row's cell
// until the placing pass has read it.
func (b *blocks) cellShare(w int) {
	g := b.grid
	cells := g.Side * g.Side
	count := b.start[w*cells : (w+1)*cells]
	first, last := b.share(b.n, w)
	for i := first; i < last; i++ {
		c := g.Cell(b.src[rowOffset(b.idx, i, b.dim):])
		b.minSq[i] = float64(c)
		count[c]++
	}
}

// scatterShare places worker w's rows at their slots. It reads the rows in
// order and writes one stream per occupied cell, which stays in cache where
// the points cluster. The loop reads the arrays through b: copied into
// locals, they spilled to the stack and the pass ran about 30% slower at
// n = 20,000, the size of an MRG reducer's partition.
func (b *blocks) scatterShare(w int) {
	dim := b.dim
	cells := b.grid.Side * b.grid.Side
	start := b.start[w*cells : (w+1)*cells]
	first, last := b.share(b.n, w)
	for i := first; i < last; i++ {
		c := int(b.minSq[i])
		j := int(start[c])
		start[c]++
		b.orig[j] = int32(i)
		if b.slot != nil {
			b.slot[i] = int32(j)
		}
		o := rowOffset(b.idx, i, dim)
		for d, v := range b.src[o : o+dim] { // a loop: copy would call memmove
			b.data[j*dim+d] = v
		}
	}
}

// boxShare starts worker w's share of the blocks: every minSq at +Inf, the
// box, and the farthest point, which is then the lowest input row.
func (b *blocks) boxShare(w int) {
	dim, data, orig, minSq := b.dim, b.data, b.orig, b.minSq
	firstBlock, lastBlock := b.share(len(b.max), w)
	for k := firstBlock; k < lastBlock; k++ {
		first, last := k*blockSize, min((k+1)*blockSize, len(orig))
		box := b.box[2*dim*k : 2*dim*(k+1)]
		copy(box, data[first*dim:(first+1)*dim])
		copy(box[dim:], box)
		arg := first
		for j := first; j < last; j++ {
			minSq[j] = math.Inf(1)
			for d, v := range data[j*dim : (j+1)*dim] {
				if v < box[d] {
					box[d] = v
				}
				if v > box[dim+d] {
					box[dim+d] = v
				}
			}
			if orig[j] < orig[arg] {
				arg = j
			}
		}
		b.max[k], b.arg[k] = math.Inf(1), arg
	}
}

// relax is one round of the traversal against center q, the c-th center:
// it relaxes every block q may improve and returns the input row of the
// farthest point and its squared distance, exactly as metric.RelaxFarthest
// over the whole input would.
func (b *blocks) relax(q []float64, c int) (int, float64) {
	b.q, b.c = q, c
	b.each((*blocks).relaxShare)
	far, best := b.far[0], b.best[0]
	for w := 1; w < b.workers; w++ {
		if m, a := b.far[w], b.best[w]; m > far || (m == far && b.orig[a] < b.orig[best]) {
			far, best = m, a
		}
	}
	return int(b.orig[best]), far
}

// relaxShare is worker w's part of a round: blocks w, w+workers, … . It
// leaves their farthest point in far[w] and best[w]; a worker without
// blocks leaves −1, which every block's maximum beats.
func (b *blocks) relaxShare(w int) {
	dim, q := b.dim, b.q
	z := b.z[w*zStride(dim) : w*zStride(dim)+dim]
	far, best := -1.0, 0
	for k := w; k < len(b.max); k += b.workers {
		box := b.box[2*dim*k : 2*dim*(k+1)]
		for d := range z {
			z[d] = min(max(q[d], box[d]), box[dim+d])
		}
		if metric.SqDist(z, q) < b.max[k] {
			first, last := k*blockSize, min((k+1)*blockSize, b.n)
			b.max[k], b.arg[k] = b.relaxBlock(first, last, q, b.c)
		}
		if m, a := b.max[k], b.arg[k]; m > far || (m == far && b.orig[a] < b.orig[best]) {
			far, best = m, a
		}
	}
	b.far[w], b.best[w] = far, best
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
// it is not wanted. The layout is spent by then: the coordinate copy
// stages minSq for the gather and orig the assignment, whose positions are
// below k ≤ n ≤ 2^31 − 1.
func (b *blocks) rowOrder() ([]float64, []int) {
	if !b.wantMinDist && b.assign == nil {
		return nil, nil
	}
	b.each((*blocks).stageShare)
	b.each((*blocks).gatherShare)
	if !b.wantMinDist {
		return nil, b.assign
	}
	return b.minSq, b.assign
}

// stageShare stages worker w's share of the slots for the gather.
func (b *blocks) stageShare(w int) {
	first, last := b.share(b.n, w)
	if b.wantMinDist {
		copy(b.data[first:last], b.minSq[first:last])
	}
	if b.assign != nil {
		for j, a := range b.assign[first:last] {
			b.orig[first+j] = int32(a)
		}
	}
}

// gatherShare puts worker w's share of the rows back in row order.
func (b *blocks) gatherShare(w int) {
	first, last := b.share(b.n, w)
	slot := b.slot[first:last]
	if b.wantMinDist {
		stage, minDist := b.data, b.minSq[first:last]
		for i, j := range slot {
			minDist[i] = math.Sqrt(stage[j])
		}
	}
	if b.assign != nil {
		staged, assign := b.orig, b.assign[first:last]
		for i, j := range slot {
			assign[i] = int(staged[j])
		}
	}
}
