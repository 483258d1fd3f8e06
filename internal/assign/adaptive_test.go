package assign

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// TestAdaptiveModesBitIdentical pins the adaptive-kernel contract: the
// plain one-to-many scan, the grid filter and the adaptive path (the grid
// filter where preferGrid holds, else the metric.Index's kernel) must
// produce bit-identical evaluations on both sides of the crossovers. At
// n = 4000, below the grid's floor, unif2d and gau2d at k = 80 take the
// index's sweep and kdd at k = 80 its pruned scan.
func TestAdaptiveModesBitIdentical(t *testing.T) {
	workloads := []struct {
		name string
		ds   *metric.Dataset
	}{
		{"unif2d", dataset.Unif(dataset.UnifConfig{N: 4000, Seed: 31}).Points},
		{"gau2d", dataset.Gau(dataset.GauConfig{N: 4000, KPrime: 10, Seed: 32}).Points},
		{"kdd", dataset.KDDLike(dataset.KDDLikeConfig{N: 1500, Seed: 33}).Points},
	}
	for _, w := range workloads {
		// k = 5 sits below every crossover, k = 80 above; both paths must
		// agree regardless.
		for _, k := range []int{1, 5, 80} {
			res := core.Gonzalez(w.ds, k, core.Options{First: 0})
			plain := evaluate(w.ds, res.Centers, 0, modePlain)
			grid := evaluate(w.ds, res.Centers, 0, modeGrid)
			adaptive := Evaluate(w.ds, res.Centers, 0)
			name := w.name + "/k=" + strconv.Itoa(k)
			assertIdentical(t, name+"/grid-vs-plain", grid, plain)
			assertIdentical(t, name+"/adaptive-vs-plain", adaptive, plain)

			// The plain path's accounting is exact: n·k, no matrix.
			wantPlain := int64(w.ds.N) * int64(len(res.Centers))
			if plain.DistEvals != wantPlain {
				t.Fatalf("%s: plain DistEvals = %d, want %d", name, plain.DistEvals, wantPlain)
			}
			// The adaptive path must match whichever path it selected.
			want := indexEvals(w.ds, res.Centers)
			if preferGrid(w.ds.N, len(res.Centers), w.ds.Dim) {
				want = grid.DistEvals
			}
			if adaptive.DistEvals != want {
				t.Fatalf("%s: adaptive DistEvals = %d, want %d", name, adaptive.DistEvals, want)
			}
		}
	}
}

// indexEvals is the DistEvals of Evaluate's index path: the build of the
// metric.Index over the centers plus what each point's query evaluated.
func indexEvals(ds *metric.Dataset, centers []int) int64 {
	idx := metric.NewIndex(ds.Subset(centers))
	evals := idx.BuildEvals()
	for i := 0; i < ds.N; i++ {
		_, _, e := idx.Nearest(ds.At(i))
		evals += e
	}
	return evals
}

// gridCase is one input of TestGridFilterBitIdentical.
type gridCase struct {
	name string
	ds   *metric.Dataset
}

// gridCases builds n-point inputs of dimension dim that stress the grid
// filter's bounds and the tie-breaks.
func gridCases(r *rng.Source, n, dim int) []gridCase {
	gen := func(coord func(i, d int) float64) *metric.Dataset {
		ds := metric.NewDataset(n, dim)
		for i := 0; i < n; i++ {
			for d := 0; d < dim; d++ {
				ds.Data[i*dim+d] = coord(i, d)
			}
		}
		return ds
	}
	gau := dataset.Gau(dataset.GauConfig{N: n, KPrime: 25, Dim: dim, Seed: r.Uint64()}).Points
	unif := dataset.Unif(dataset.UnifConfig{N: n, Dim: dim, Seed: r.Uint64()}).Points
	return []gridCase{
		{"gau", gau},
		{"unif", unif},
		// Integer coordinates in [0, 32]: duplicate points, many equal
		// distances, and points on the cells' edges and their boxes' faces.
		{"int-grid", gen(func(int, int) float64 { return float64(r.Intn(33)) })},
		// One occupied cell whose box is a single point.
		{"identical", gen(func(int, int) float64 { return 3.5 })},
		{"constant-coord", gen(func(_, d int) float64 {
			if d == dim-1 {
				return 7
			}
			return r.Float64Range(0, 1)
		})},
		// Differences up to 2e154 square past MaxFloat64: many d² are +Inf,
		// so are some cells' bounds, and the radius is +Inf.
		{"overflow", gen(func(int, int) float64 { return r.Float64Range(-1e154, 1e154) })},
		// Row 0 at the origin, row 1 at 100·e0 and a 0.01-wide cloud about
		// 51 away from both, across their bisector x = 50: every cloud
		// cell's box lies within 0.1% of its points' distances to both, so
		// a bound with any slack drops the nearest center. Row 2 at
		// −27.3·e0 moves the grid's column edges off the bisector.
		{"bisector", gen(func(i, d int) float64 {
			switch {
			case i == 0:
				return 0
			case i == 1:
				return float64(100 * (1 - min(d, 1)))
			case i == 2:
				return -27.3 * float64(1-min(d, 1))
			case d == 0:
				return r.Float64Range(49.995, 50.005)
			case d == dim-1:
				return r.Float64Range(9.995, 10.005)
			}
			return r.Float64Range(-0.005, 0.005)
		})},
	}
}

// TestGridFilterBitIdentical pins the grid filter against the plain scan,
// bit for bit (Assignment, Dist, Radius, Farthest, ClusterSizes), and the
// radius against core.CoveringRadius, on both sides of preferGrid, for
// Gonzalez centers, random centers and rows 0 and 1.
func TestGridFilterBitIdentical(t *testing.T) {
	r := rng.New(23)
	type shape struct {
		n, k, dim int
		grid      bool // the side of preferGrid the shape must be on
	}
	shapes := []shape{
		{1 << 17, 50, 2, true}, // a 64 × 64 grid
		{4096, 16, 2, true},    // an 8 × 8 grid
		{4096, 15, 2, false},
		{4095, 50, 2, false},
		{20000, 30, 1, true},
		{20000, 30, 3, false},
	}
	if testing.Short() {
		// The race gate: one small shape on the filter's side.
		shapes = []shape{{5000, 20, 2, true}}
	}
	for _, sh := range shapes {
		if got := preferGrid(sh.n, sh.k, sh.dim); got != sh.grid {
			t.Fatalf("preferGrid(%d, %d, %d) = %v, want %v", sh.n, sh.k, sh.dim, got, sh.grid)
		}
		for _, c := range gridCases(r, sh.n, sh.dim) {
			// Rows 0 and 1 alone are the two centers the bisector cloud
			// sits between.
			for _, centers := range [][]int{
				core.Gonzalez(c.ds, sh.k, core.Options{First: r.Intn(sh.n)}).Centers,
				r.Sample(sh.n, sh.k),
				{0, 1},
			} {
				label := fmt.Sprintf("n=%d k=%d dim=%d %s", sh.n, sh.k, sh.dim, c.name)
				plain := evaluate(c.ds, centers, 3, modePlain)
				grid := evaluate(c.ds, centers, 3, modeGrid)
				adaptive := Evaluate(c.ds, centers, 0)
				assertIdentical(t, label+" grid", grid, plain)
				assertIdentical(t, label+" adaptive", adaptive, plain)
				if want, _ := core.CoveringRadius(c.ds, centers); math.Float64bits(grid.Radius) != math.Float64bits(want) {
					t.Fatalf("%s: radius %v, core.CoveringRadius %v", label, grid.Radius, want)
				}
				// The adaptive path must match whichever path it selected
				// (Gonzalez stops early on the identical input, below the
				// rule's k).
				want := indexEvals(c.ds, centers)
				if preferGrid(sh.n, len(centers), sh.dim) {
					want = grid.DistEvals
				}
				if adaptive.DistEvals != want {
					t.Fatalf("%s: adaptive DistEvals %d, want %d", label, adaptive.DistEvals, want)
				}
			}
		}
	}
}
