package core

import (
	"fmt"
	"testing"

	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// blockedCase is one input of TestGonzalezBlockedBitIdentical, traversed
// from first, or from a random row when first is -1.
type blockedCase struct {
	name  string
	ds    *metric.Dataset
	first int
}

// blockedCases builds n-point inputs of dimension dim that stress the box
// bound and the tie-breaks.
func blockedCases(r *rng.Source, n, dim int) []blockedCase {
	gen := func(name string, coord func(i, d int) float64) blockedCase {
		ds := metric.NewDataset(n, dim)
		for i := 0; i < n; i++ {
			for d := 0; d < dim; d++ {
				ds.Data[i*dim+d] = coord(i, d)
			}
		}
		return blockedCase{name, ds, -1}
	}
	// Row 0 at the origin starts the traversal, row 1 at 100·e0 is the
	// second center, and the rest form a 0.01-wide cloud about 51 away
	// from both, across their bisector. Every box of the cloud lies
	// within 0.1% of its points' distances, so a box test with any
	// slack skips points the second center does move.
	bisector := gen("bisector", func(i, d int) float64 {
		switch {
		case i == 0:
			return 0
		case i == 1:
			return float64(100 * (1 - min(d, 1)))
		case d == 0:
			return r.Float64Range(49.995, 50.005)
		case d == 1:
			return r.Float64Range(9.995, 10.005)
		}
		return r.Float64Range(-0.005, 0.005)
	})
	bisector.first = 0
	return []blockedCase{
		gen("uniform", func(int, int) float64 { return r.Float64Range(-50, 50) }),
		// Integer coordinates in [0, 32]: duplicate points, many equal
		// distances, and points on the grid's cell edges (at n = 9,000 the
		// grid is 32 × 32 over a span of 32) and on the blocks' box edges.
		gen("grid", func(int, int) float64 { return float64(r.Intn(33)) }),
		gen("identical", func(int, int) float64 { return 3.5 }),
		gen("constant-coord", func(_, d int) float64 {
			if d == dim-1 {
				return 7
			}
			return r.Float64Range(0, 1)
		}),
		// Differences up to 2e154 square past MaxFloat64: many d² are +Inf,
		// and the farthest point is the lowest row among them.
		gen("overflow", func(int, int) float64 { return r.Float64Range(-1e154, 1e154) }),
		bisector,
	}
}

// TestGonzalezBlockedBitIdentical pins Gonzalez, GonzalezAssign and
// GonzalezSubset against the in-test literal gonzalezReference, bit for bit,
// on inputs where the blocked layout engages and where it does not.
func TestGonzalezBlockedBitIdentical(t *testing.T) {
	r := rng.New(22)
	const n = minBlockedN + 808 // 9,000: at dim ≤ 2 the layout engages from k = 20
	shapes := []struct{ n, k int }{{n, 19}, {n, 20}, {n, 100}, {minBlockedN - 1, 100}}
	dims := []int{1, 2, 3, 4, 5, 8}
	if testing.Short() {
		// One blocked shape; TestGonzalezBlockedWorkersBitIdentical is the
		// one that starts goroutines.
		dims, shapes = []int{2}, shapes[1:2]
	}
	sides := map[bool]int{}
	for _, dim := range dims {
		for _, sh := range shapes {
			sides[preferBlocks(sh.n, sh.k, dim)]++
			for _, c := range blockedCases(r, sh.n, dim) {
				first := c.first
				if first < 0 {
					first = r.Intn(sh.n)
				}
				label := fmt.Sprintf("dim=%d n=%d k=%d %s first=%d", dim, sh.n, sh.k, c.name, first)
				want := gonzalezReference(c.ds, sh.k, first)
				requireSameAsReference(t, label+" Gonzalez", Gonzalez(c.ds, sh.k, Options{First: first}), want)
				got := GonzalezAssign(c.ds, sh.k, Options{First: first})
				if len(got.Assignment) != sh.n {
					t.Fatalf("%s: GonzalezAssign returned %d assignments", label, len(got.Assignment))
				}
				requireSameAsReference(t, label+" GonzalezAssign", got, want)

				// The subset is all rows but 100, in random order.
				idx := r.Perm(sh.n)[100:]
				subFirst := r.Intn(len(idx))
				subWant := gonzalezReference(c.ds.Subset(idx), sh.k, subFirst)
				sub := GonzalezSubset(c.ds, idx, sh.k, Options{First: subFirst})
				if len(sub.Centers) != len(subWant.Centers) {
					t.Fatalf("%s subset: %d centers != %d", label, len(sub.Centers), len(subWant.Centers))
				}
				for i, pos := range subWant.Centers {
					if sub.Centers[i] != idx[pos] {
						t.Fatalf("%s subset: center %d is %d, reference %d", label, i, sub.Centers[i], idx[pos])
					}
				}
				if sub.Radius != subWant.Radius || sub.DistEvals != subWant.DistEvals {
					t.Fatalf("%s subset: radius %v evals %d, reference %v %d",
						label, sub.Radius, sub.DistEvals, subWant.Radius, subWant.DistEvals)
				}
			}
		}
	}
	if sides[true] == 0 || (!testing.Short() && sides[false] == 0) {
		t.Fatalf("shapes cover the blocked side %d times and the plain side %d times", sides[true], sides[false])
	}
}

// TestGonzalezBlockedWorkersBitIdentical runs the traversal at forced worker
// counts, the odd ones giving uneven row and block shares, and pins each
// against gonzalezReference bit for bit, with and without MinDist and the
// assignment carry and over a subset. Where the layout engages it also pins
// the slot order against the one-worker layout's, which the results alone
// do not show: any permutation of the rows gives the same centers.
func TestGonzalezBlockedWorkersBitIdentical(t *testing.T) {
	r := rng.New(27)
	const n = minBlockedN + 808
	shapes := []struct{ n, k int }{{n, 20}, {n, 100}, {minBlockedN - 1, 100}}
	dims := []int{1, 2}
	if testing.Short() {
		// The race gate runs this test.
		dims, shapes = []int{2}, shapes[:1]
	}
	for _, dim := range dims {
		for _, sh := range shapes {
			blocked := preferBlocks(sh.n, sh.k, dim)
			for _, c := range blockedCases(r, sh.n, dim) {
				first := c.first
				if first < 0 {
					first = r.Intn(sh.n)
				}
				want := gonzalezReference(c.ds, sh.k, first)
				idx := r.Perm(sh.n)[100:]
				subFirst := r.Intn(len(idx))
				subWant := gonzalezReference(c.ds.Subset(idx), sh.k, subFirst)
				subWant.MinDist = nil // gonzalez returns positions in idx and no MinDist
				var layout []int32
				for _, workers := range []int{1, 2, 3, 7} {
					label := fmt.Sprintf("dim=%d n=%d k=%d %s first=%d workers=%d", dim, sh.n, sh.k, c.name, first, workers)
					opt := Options{First: first}
					requireSameAsReference(t, label+" MinDist", gonzalez(c.ds, nil, sh.k, opt, true, false, workers, nil), want)
					requireSameAsReference(t, label+" MinDist+Assignment", gonzalez(c.ds, nil, sh.k, opt, true, true, workers, nil), want)
					requireSameAsReference(t, label+" subset", gonzalez(c.ds, idx, sh.k, Options{First: subFirst}, false, false, workers, nil), subWant)
					if !blocked {
						continue
					}
					orig := newBlocks(c.ds, nil, false, false, workers, nil).orig
					if layout == nil {
						layout = orig
					}
					for j := range layout {
						if orig[j] != layout[j] {
							t.Fatalf("%s: slot %d holds row %d, %d with one worker", label, j, orig[j], layout[j])
						}
					}
				}
			}
		}
	}
}

// TestGonzalezRangeReusesScratch runs a sequence of GonzalezRange calls
// through one Scratch, across dimensions, blocked and plain ranges, and
// ranges that shrink and grow again, and pins each against
// gonzalezReference over a copy of the range, bit for bit. A stale cell
// count, minSq, box or block maximum left by an earlier call would show.
func TestGonzalezRangeReusesScratch(t *testing.T) {
	r := rng.New(29)
	const n = 2*minBlockedN + 3000
	ranges := []struct{ lo, hi, k int }{
		{0, n, 50},                          // blocked, the whole input
		{3000, 3000 + minBlockedN, 20},      // blocked, smaller
		{100, 5000, 50},                     // plain: below minBlockedN
		{7, n - 1000, 19},                   // plain: k < 20
		{1, n, 100},                         // blocked again
		{n - minBlockedN - 1, n - 1, 20},    // blocked, at the end
		{minBlockedN, minBlockedN + 40, 50}, // fewer points than k
	}
	dims := []int{1, 2, 3}
	if testing.Short() {
		dims = []int{2}
	}
	var sc Scratch
	for _, dim := range dims {
		for _, c := range blockedCases(r, n, dim) {
			for _, rg := range ranges {
				first := r.Intn(rg.hi - rg.lo)
				if c.first >= 0 {
					first = 0
				}
				label := fmt.Sprintf("dim=%d %s rows [%d, %d) k=%d first=%d", dim, c.name, rg.lo, rg.hi, rg.k, first)
				idx := make([]int, rg.hi-rg.lo)
				for i := range idx {
					idx[i] = rg.lo + i
				}
				want := gonzalezReference(c.ds.Subset(idx), rg.k, first)
				for i := range want.Centers {
					want.Centers[i] += rg.lo
				}
				want.MinDist, want.Assignment = nil, nil
				got := GonzalezRange(c.ds, rg.lo, rg.hi, rg.k, Options{First: first}, &sc)
				if got.MinDist != nil || got.Assignment != nil {
					t.Fatalf("%s: GonzalezRange returned MinDist or Assignment", label)
				}
				requireSameAsReference(t, label, got, want)
			}
		}
	}
}
