package metric

import "math"

// MaxGridBits is the largest bits NewGrid accepts: Cell interleaves the
// low 8 bits of each column index.
const MaxGridBits = 8

// Grid maps a point to its cell of a Side × Side Morton-ordered grid over
// two coordinates, the first and the last (the same one at dim 1). It is
// the spatial bucketing shared by the blocked farthest-first traversal
// (internal/core) and grid-filtered assignment (internal/assign). Both only
// use it to decide which points share a bucket, and compute each bucket's
// exact bounding box from its points, so any cell is a correct answer: a
// point whose offset overflows lands in the last column.
type Grid struct {
	Side           int
	x, y           int
	x0, y0, sx, sy float64
}

// NewGrid returns the 2^bits × 2^bits grid, 0 ≤ bits ≤ MaxGridBits, over
// the box whose lowest and highest coordinates are lo and hi.
func NewGrid(bits int, lo, hi []float64) Grid {
	x, y := 0, len(lo)-1
	return Grid{Side: 1 << bits, x: x, y: y, x0: lo[x], y0: lo[y],
		sx: gridScale(bits, hi[x]-lo[x]), sy: gridScale(bits, hi[y]-lo[y])}
}

// gridScale returns the factor that maps a coordinate span onto 2^bits
// columns, or 0, which puts every point in column 0, when the span is 0 or
// too narrow to scale.
func gridScale(bits int, span float64) float64 {
	if s := float64(int(1)<<bits) / span; s <= math.MaxFloat64 {
		return s
	}
	return 0
}

// Cell returns the Morton index of p's cell, in [0, Side²). A NaN from a
// difference that overflows lands in the last column.
func (g *Grid) Cell(p []float64) int {
	return spread(g.column(p[g.x]-g.x0, g.sx)) | spread(g.column(p[g.y]-g.y0, g.sy))<<1
}

func (g *Grid) column(offset, scale float64) int {
	if t := offset * scale; t < float64(g.Side) {
		return int(t)
	}
	return g.Side - 1
}

// spread interleaves the low 8 bits of v with zeros: bit i moves to bit 2i.
func spread(v int) int {
	v = (v | v<<4) & 0x0f0f
	v = (v | v<<2) & 0x3333
	return (v | v<<1) & 0x5555
}
