package assign

import (
	"math"

	"kcenter/internal/metric"
)

// The grid filter: Evaluate's third nearest-center kernel.
//
// Most of a plain k·n assignment scan is wasted: a point deep inside one
// cluster need not be measured against a center on the far side of the
// data. The filter (Kanungo et al., "An Efficient k-Means Clustering
// Algorithm", TPAMI 2002; Pelleg & Moore, KDD 1999) finds such pairs a
// region at a time. It buckets the points into the cells of a
// metric.Grid, takes the exact bounding box of each occupied cell, and
// keeps as the cell's candidates only the centers that may be nearest to
// some point of the box. Each point is then scanned against its cell's
// candidates alone, in ascending center order.
//
// The filter is exact, with no slack. For a box B and a center c, let
// U(c) be the computed squared distance from c to B's farthest corner and
// L(c) that from c to c clamped to B, both summed in metric.SqDist's
// order. For every coordinate and every point x of B, |c−clamp| ≤ |c−x| ≤
// |c−corner| holds exactly, and rounding is monotone, so the computed
// differences, their squares and every partial sum keep that order:
// L(c) ≤ d²(x, c) ≤ U(c), with d² computed as the plain scan computes it.
// Let ub be the least U over all centers. Every x of B then has a center
// within ub, so its nearest squared distance m(x) ≤ ub. A center with
// L(c) > ub has d²(x, c) > m(x) for every x of B: it can neither win nor
// tie. The center that realises m(x) has L ≤ m(x) ≤ ub, so it is always a
// candidate, and scanning the candidates in ascending order with the
// plain scan's strict < picks the lowest position among the nearest, as
// the plain scan does. A d² that overflows to +Inf keeps the argument
// (ub = +Inf makes every center a candidate); a NaN or ±Inf coordinate
// does not, and such input takes the metric.Index.

// The grid is the smallest 2^b × 2^b with at most gridPointsPerCell
// points per cell on average, up to b = gridMaxBits (64 × 64 cells).
const (
	gridPointsPerCell = 64
	gridMaxBits       = 6
)

// preferGrid reports whether the grid filter is expected to beat the plain
// scan for k centers over n points of dimension dim. All kernels return
// bit-identical evaluations; this only picks the faster.
//
// The filter costs three passes over the input (bounds, cells and boxes,
// the scan) and two bounds per center per occupied cell, and saves nearly
// all of the k distances per point: on GAU n = 10⁶ (k′ = 25) a point is
// scanned against 1.0 centers at k ≤ 25, 2.1 at k = 50 and 4.1 at
// k = 100. Fitted from the minimum of repeated Evaluate calls, plain
// against grid, on MRG's centers over GAU (k′ = 25, seed 7) and UNIF
// inputs on a 2-vCPU host (GOMAXPROCS 2), and checked against
// BenchmarkEvaluateShapes:
//
//   - dim 2, n ∈ {10⁴, 3·10⁴, 10⁵, 3·10⁵, 10⁶}: at k ≥ 16 the grid takes
//     0.23–0.44 of the plain time on GAU and 0.25–0.84 on UNIF. At k = 10
//     GAU still wins (0.35–0.55) but UNIF is level (0.58–1.04), at k = 5
//     UNIF loses up to 1.5× and at k = 2 the grid loses on both (up to
//     2.5× on UNIF).
//   - dim 2, n ∈ {1000, 2000, 4000, 8000, 16000}, k ∈ {10 … 100}: from
//     n = 4000 every k ≥ 16 wins (0.30–0.81); below, UNIF loses up to
//     1.4× at k = 16 and the fixed cost of the passes shows.
//   - dim 1: the grid won at every measured shape (0.13–0.67) when the
//     plain scan called SqDist per center. Against the dim-1 kernel
//     body, on GAU n ∈ {10⁵, 10⁶} at k ∈ {16, 50}, it takes 0.50–0.80
//     (best of 3 means of 10 calls); at k = 5, 0.73 at n = 10⁵ and level
//     at n = 10⁶.
//   - dim 3: the grid buckets two coordinates, so a cell's box spans the
//     whole range of the third. GAU still wins (0.34–0.59 from n = 10⁵),
//     but UNIF is 1.7–2.5× slower at every measured shape, so dim ≥ 3
//     keeps the metric.Index.
//
// At the batch shape of the paper's GAU runs (n = 10⁶, k = 50)
// BenchmarkEvaluateShapes, then with a forced plain row, read the grid at
// 0.26–0.28 of the plain time (18 ms against 66 ms in one run; the host's
// speed varied up to 2× between runs, the ratio did not).
func preferGrid(n, k, dim int) bool {
	return dim <= 2 && k >= 16 && n >= 4096
}

// gridFilter holds the candidate centers of every occupied cell of one
// dataset's grid.
type gridFilter struct {
	dim  int
	c    *metric.Dataset // the gathered centers
	data []float64       // the dataset's coordinates
	// cands[g] lists cell g's candidate center positions, ascending.
	cands [][]int32
	// evals counts the bound evaluations: two per center per occupied cell.
	evals int64
}

// newGridFilter builds the filter for the centers c over ds, with the
// given number of workers, stashing each point's cell in cell. It returns
// nil when a coordinate of ds is NaN or ±Inf.
func newGridFilter(ds, c *metric.Dataset, workers int, cell []int) *gridFilter {
	n, dim := ds.N, ds.Dim

	// The bounds of every coordinate, a box per worker, nil where the
	// worker's chunk holds a coordinate that is not finite.
	bounds := make([][]float64, workers)
	chunks := forChunks(workers, n, func(w, lo, hi int) {
		data := ds.Data[lo*dim : hi*dim]
		b := make([]float64, 2*dim)
		copy(b, data[:dim])
		copy(b[dim:], data[:dim])
		if growBox(b, data) {
			bounds[w] = b
		}
	})
	for _, b := range bounds[:chunks] {
		if b == nil {
			return nil
		}
	}
	box := bounds[0]
	for _, b := range bounds[1:chunks] {
		mergeBoxes(box, b, dim)
	}
	bits := 0
	for bits < gridMaxBits && n > gridPointsPerCell<<(2*bits) {
		bits++
	}
	g := metric.NewGrid(bits, box[:dim], box[dim:])
	cells := g.Side * g.Side

	// Each worker stashes its points' cells and grows its own box per
	// cell; a box no point has reached is +Inf below −Inf.
	boxes := make([][]float64, workers)
	forChunks(workers, n, func(w, lo, hi int) {
		bx := make([]float64, 2*dim*cells)
		for j := 0; j < len(bx); j += 2 * dim {
			for d := 0; d < dim; d++ {
				bx[j+d], bx[j+dim+d] = math.Inf(1), math.Inf(-1)
			}
		}
		if dim == 2 {
			data := ds.Data[2*lo : 2*hi]
			for i := lo; i < hi; i++ {
				p := data[:2:2]
				data = data[2:]
				gc := g.Cell(p)
				cell[i] = gc
				b := bx[4*gc : 4*gc+4 : 4*gc+4]
				if p[0] < b[0] {
					b[0] = p[0]
				}
				if p[1] < b[1] {
					b[1] = p[1]
				}
				if p[0] > b[2] {
					b[2] = p[0]
				}
				if p[1] > b[3] {
					b[3] = p[1]
				}
			}
			boxes[w] = bx
			return
		}
		for i := lo; i < hi; i++ {
			p := ds.Data[i*dim : (i+1)*dim]
			gc := g.Cell(p)
			cell[i] = gc
			growBox(bx[2*dim*gc:2*dim*(gc+1)], p)
		}
		boxes[w] = bx
	})
	merged := boxes[0]
	for _, bx := range boxes[1:chunks] {
		mergeBoxes(merged, bx, dim)
	}

	// Each worker lists the candidates of a range of cells into its own
	// buffer.
	f := &gridFilter{dim: dim, c: c, data: ds.Data, cands: make([][]int32, cells)}
	occupied := make([]int64, workers)
	forChunks(workers, cells, func(w, lo, hi int) {
		var buf []int32
		ends := make([]int, hi-lo)
		z := make([]float64, dim)
		for gc := lo; gc < hi; gc++ {
			if b := merged[2*dim*gc : 2*dim*(gc+1)]; b[0] <= b[dim] {
				occupied[w]++
				buf = appendCandidates(buf, c, b, z)
			}
			ends[gc-lo] = len(buf)
		}
		from := 0
		for j, to := range ends {
			f.cands[lo+j] = buf[from:to:to]
			from = to
		}
	})
	for _, o := range occupied {
		f.evals += 2 * int64(c.N) * o
	}
	return f
}

// appendCandidates appends to buf the positions, ascending, of the centers
// of c that may be nearest to some point of box b (dim lowest, then dim
// highest coordinates); z is dim scratch.
func appendCandidates(buf []int32, c *metric.Dataset, b, z []float64) []int32 {
	dim := c.Dim
	ub := math.Inf(1)
	if dim == 2 {
		lo0, lo1, hi0, hi1 := b[0], b[1], b[2], b[3]
		for j := 0; j < len(c.Data); j += 2 {
			c0, c1 := c.Data[j], c.Data[j+1]
			d0 := max(math.Abs(c0-lo0), math.Abs(c0-hi0))
			d1 := max(math.Abs(c1-lo1), math.Abs(c1-hi1))
			ub = min(ub, d0*d0+d1*d1)
		}
		for j := 0; j < len(c.Data); j += 2 {
			c0, c1 := c.Data[j], c.Data[j+1]
			d0 := c0 - min(max(c0, lo0), hi0)
			d1 := c1 - min(max(c1, lo1), hi1)
			if d0*d0+d1*d1 <= ub {
				buf = append(buf, int32(j/2))
			}
		}
		return buf
	}
	for j := 0; j < c.N; j++ {
		q := c.At(j)
		for d, x := range q {
			if math.Abs(x-b[d]) > math.Abs(x-b[dim+d]) {
				z[d] = b[d]
			} else {
				z[d] = b[dim+d]
			}
		}
		ub = min(ub, metric.SqDist(q, z))
	}
	for j := 0; j < c.N; j++ {
		q := c.At(j)
		for d, x := range q {
			z[d] = min(max(x, b[d]), b[dim+d])
		}
		if metric.SqDist(q, z) <= ub {
			buf = append(buf, int32(j))
		}
	}
	return buf
}

// scan assigns points [lo, hi) of the evaluation to their nearest
// centers, exactly as metric.NearestInRange over all the centers would.
// Each point's cell is read from ev.Assignment, where newGridFilter put it,
// before the point's center overwrites it.
func (f *gridFilter) scan(ev *Evaluation, lo, hi int, p *partial) {
	cd, data, cands := f.c.Data, f.data, f.cands
	if f.dim == 2 {
		for i := lo; i < hi; i++ {
			cs := cands[ev.Assignment[i]]
			best, bestSq := int(cs[0]), math.Inf(1)
			q0, q1 := data[2*i], data[2*i+1]
			for _, j := range cs {
				d0 := cd[2*j] - q0
				d1 := cd[2*j+1] - q1
				if sq := d0*d0 + d1*d1; sq < bestSq {
					best, bestSq = int(j), sq
				}
			}
			p.evals += int64(len(cs))
			p.add(ev, i, best, bestSq)
		}
		return
	}
	dim := f.dim
	for i := lo; i < hi; i++ {
		cs := cands[ev.Assignment[i]]
		best, bestSq := int(cs[0]), math.Inf(1)
		q := data[i*dim : (i+1)*dim]
		for _, j := range cs {
			if sq := metric.SqDist(cd[int(j)*dim:int(j+1)*dim], q); sq < bestSq {
				best, bestSq = int(j), sq
			}
		}
		p.evals += int64(len(cs))
		p.add(ev, i, best, bestSq)
	}
}

// growBox widens box b (dim lowest, then dim highest coordinates) to hold
// the points of data. It reports false, leaving b part-grown, when a
// coordinate is NaN or ±Inf: x−x is 0 for every finite x and NaN for those.
func growBox(b, data []float64) bool {
	if len(b) == 4 {
		lo0, lo1, hi0, hi1 := b[0], b[1], b[2], b[3]
		for j := 0; j+1 < len(data); j += 2 {
			x0, x1 := data[j], data[j+1]
			if x0-x0 != 0 || x1-x1 != 0 {
				return false
			}
			if x0 < lo0 {
				lo0 = x0
			}
			if x0 > hi0 {
				hi0 = x0
			}
			if x1 < lo1 {
				lo1 = x1
			}
			if x1 > hi1 {
				hi1 = x1
			}
		}
		b[0], b[1], b[2], b[3] = lo0, lo1, hi0, hi1
		return true
	}
	dim := len(b) / 2
	lo, hi := b[:dim], b[dim:]
	for j := 0; j < len(data); j += dim {
		for d, x := range data[j : j+dim] {
			if x-x != 0 {
				return false
			}
			if x < lo[d] {
				lo[d] = x
			}
			if x > hi[d] {
				hi[d] = x
			}
		}
	}
	return true
}

// mergeBoxes widens every box of dst (2·dim values each) to hold the
// same-numbered box of src.
func mergeBoxes(dst, src []float64, dim int) {
	for j := 0; j < len(dst); j += 2 * dim {
		for d := j; d < j+dim; d++ {
			dst[d] = min(dst[d], src[d])
			dst[dim+d] = max(dst[dim+d], src[dim+d])
		}
	}
}
