// Package assign evaluates k-center solutions: it assigns every point to its
// nearest center and computes the covering radius, cluster sizes and related
// diagnostics. Evaluation is embarrassingly parallel and uses a bounded
// goroutine pool; it is *not* charged to the simulated MapReduce cost model,
// because the paper reports solution values as a property of the output, not
// as algorithm runtime.
//
// Nearest-center queries take one of two bit-identical paths per call:
//
//   - the grid filter (grid.go), where preferGrid holds: dim ≤ 2, k ≥ 16
//     and n ≥ 4096. The points are bucketed into a metric.Grid of at most
//     64 × 64 cells over two coordinates, each occupied cell keeps only the
//     centers that may be nearest to some point of its exact bounding box,
//     and each point is scanned against its cell's candidates alone — about
//     one to four per point on the paper's GAU inputs at k ≤ 100. Input
//     with a NaN or ±Inf coordinate takes the index;
//   - otherwise a metric.Index over the gathered centers, built once per
//     evaluation; metric.NewIndex chooses its kernel.
//
// Assignments, distances, radii, the farthest point and the cluster sizes
// are identical whichever path runs; only DistEvals reflects which one
// did. Both write their outputs in row order, over the same contiguous
// row-order chunk per worker.
package assign

import (
	"math"
	"runtime"
	"sync"

	"kcenter/internal/metric"
)

// Evaluation is the result of assigning a dataset to a center set.
type Evaluation struct {
	// Assignment[i] is the position (in the centers slice) of the nearest
	// center of point i. Ties break toward the lower position, which makes
	// assignment deterministic ("breaking ties arbitrarily but consistently"
	// in the paper's §6 terminology).
	Assignment []int
	// Dist[i] is the distance from point i to its assigned center.
	Dist []float64
	// Radius is max(Dist): the k-center objective value.
	Radius float64
	// Farthest is the index of a point realizing Radius.
	Farthest int
	// ClusterSizes[c] counts points assigned to centers[c].
	ClusterSizes []int
	// DistEvals counts the distance evaluations actually performed. On the
	// grid path it is two box bounds per center per occupied cell plus each
	// point's candidate count. On the index path it is the index's build
	// (k² for the pruned scan's center-center matrix, none otherwise) plus
	// what each point's query evaluated: exactly n·|centers| on the plain
	// scan, and the unskipped centers on the sweep and the pruned scan
	// (at most k² + n·|centers| in all).
	DistEvals int64
}

// evalMode selects the nearest-center kernel inside evaluate.
type evalMode int

const (
	modeAdaptive evalMode = iota // preferGrid decides, else the index
	modePlain                    // force the plain one-to-many scan
	modeGrid                     // force the grid filter (the index on non-finite input)
)

// Evaluate assigns every point of ds to its nearest center. centers holds
// dataset indices; workers bounds the goroutine pool (0 means GOMAXPROCS).
func Evaluate(ds *metric.Dataset, centers []int, workers int) *Evaluation {
	return evaluate(ds, centers, workers, modeAdaptive)
}

func evaluate(ds *metric.Dataset, centers []int, workers int, mode evalMode) *Evaluation {
	if len(centers) == 0 {
		panic("assign: Evaluate with no centers")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := ds.N
	workers = max(min(workers, n), 1)
	ev := &Evaluation{
		Assignment:   make([]int, n),
		Dist:         make([]float64, n),
		ClusterSizes: make([]int, len(centers)),
		Farthest:     -1,
	}
	// Copy center coordinates once so the inner loop reads a compact block.
	// The grid filter and the index are immutable once built, so all
	// workers share them. scan is the per-chunk kernel, with identical
	// index/distance results either way.
	cpts := ds.Subset(centers)
	k := cpts.N
	var gf *gridFilter
	if mode == modeGrid || (mode == modeAdaptive && preferGrid(n, k, ds.Dim)) {
		gf = newGridFilter(ds, cpts, workers, ev.Assignment)
	}
	var scan func(lo, hi int, p *partial)
	switch {
	case gf != nil:
		ev.DistEvals = gf.evals
		scan = func(lo, hi int, p *partial) { gf.scan(ev, lo, hi, p) }
	case mode == modePlain:
		scan = func(lo, hi int, p *partial) {
			for i := lo; i < hi; i++ {
				c, sq := metric.NearestInRange(cpts, 0, k, ds.At(i))
				p.add(ev, i, c, sq)
			}
			p.evals += int64(hi-lo) * int64(k)
		}
	default:
		idx := metric.NewIndex(cpts)
		ev.DistEvals = idx.BuildEvals()
		scan = func(lo, hi int, p *partial) {
			// The batch writes each squared distance where add stores
			// its square root.
			rows := &metric.Dataset{Data: ds.Data[lo*ds.Dim : hi*ds.Dim], N: hi - lo, Dim: ds.Dim}
			p.evals += idx.NearestBatch(rows, ev.Assignment[lo:hi], ev.Dist[lo:hi])
			for i := lo; i < hi; i++ {
				p.add(ev, i, ev.Assignment[i], ev.Dist[i])
			}
		}
	}
	partials := make([]partial, workers)
	forChunks(workers, n, func(w, lo, hi int) {
		// Each worker fills its own partial, away from its neighbours'
		// cache lines, and stores it once.
		p := partial{farthest: -1, sizes: make([]int, k)}
		scan(lo, hi, &p)
		partials[w] = p
	})

	var radiusSq float64
	for _, p := range partials {
		if p.farthest >= 0 && p.radiusSq > radiusSq {
			radiusSq = p.radiusSq
			ev.Farthest = p.farthest
		}
		ev.DistEvals += p.evals
		for c, s := range p.sizes {
			ev.ClusterSizes[c] += s
		}
	}
	if ev.Farthest == -1 && n > 0 {
		ev.Farthest = 0
	}
	ev.Radius = math.Sqrt(radiusSq)
	return ev
}

// partial is one worker's share of an Evaluation: its chunk's radius,
// farthest point (the lowest row among ties), evaluation count and
// cluster sizes.
type partial struct {
	radiusSq float64
	farthest int
	evals    int64
	sizes    []int
}

// add records point i's nearest center c at squared distance sq.
func (p *partial) add(ev *Evaluation, i, c int, sq float64) {
	ev.Assignment[i] = c
	ev.Dist[i] = math.Sqrt(sq)
	p.sizes[c]++
	if sq > p.radiusSq {
		p.radiusSq, p.farthest = sq, i
	}
}

// forChunks cuts [0, n) into workers contiguous chunks in row order, runs
// fn on every non-empty one in its own goroutine, waits for all and
// returns how many ran: chunks 0 up to that count.
func forChunks(workers, n int, fn func(w, lo, hi int)) int {
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		if lo >= hi {
			wg.Wait()
			return w
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	return workers
}

// Radius is a convenience wrapper returning just the covering radius.
func Radius(ds *metric.Dataset, centers []int) float64 {
	return Evaluate(ds, centers, 0).Radius
}
