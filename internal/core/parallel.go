package core

import (
	"runtime"

	"kcenter/internal/metric"
)

// minParallelWork is the adaptive serial cutoff, in point-dimensions of
// relaxation work per worker per round. A pool round costs two channel
// operations per worker (~1–2 µs of signaling and wakeups); at roughly
// 2 ns per point-dimension, 16384 point-dims (~33 µs) per worker keeps
// that overhead under a few percent. Rounds smaller than one quantum run
// serially — for a fixed dataset every round relaxes the same [0, n)
// range, so the cutoff is a whole-traversal decision made once.
const minParallelWork = 16384

// parallelWorkers returns the effective worker count for an n×dim
// relaxation: the requested count, capped by the host parallelism (the
// relaxation is compute-bound, so oversubscription only adds scheduler
// churn) and by the serial cutoff (each worker must receive at least
// minParallelWork point-dims per round). A result ≤ 1 means "run the
// sequential traversal".
func parallelWorkers(workers, n, dim int) int {
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if max := runtime.NumCPU(); workers > max {
		// GOMAXPROCS above the usable CPU count (e.g. a -cpu benchmark
		// sweep on a smaller host) would just time-slice one core.
		workers = max
	}
	if byWork := (n * dim) / minParallelWork; workers > byWork {
		workers = byWork
	}
	if workers > n {
		workers = n
	}
	return workers
}

// GonzalezParallel is the shared-memory parallelization of the farthest-first
// traversal: the O(n) relaxation step of each of the k iterations — update
// every point's distance to the newest center and find the new farthest
// point — is split across a persistent worker pool.
//
// This is the *intra-machine* counterpart of the paper's MRG: MRG
// parallelizes across MapReduce machines by partitioning the input and
// paying a factor 2 in the guarantee, whereas this routine parallelizes the
// exact sequential traversal across cores and returns bit-identical centers
// to Gonzalez (ties broken toward the lower index, matching the sequential
// scan order). The reduction per iteration is a max, so the traversal stays
// deterministic.
//
// The worker count is adaptive: requests beyond GOMAXPROCS or beyond what
// the per-round work can amortize (see minParallelWork) are trimmed, and a
// trimmed count of ≤ 1 runs the sequential traversal outright. A pool
// always runs plain passes, which where preferBlocks holds are slower than
// the sequential blocked traversal (BenchmarkGonzalezParallel on a 2-vCPU
// host), so there the call drops the pool as well and runs Gonzalez.
// Callers running many traversals amortize pool construction with
// GonzalezPooled; the ablation benchmark BenchmarkAblationParallelGonzalez
// quantifies the speedup.
func GonzalezParallel(ds *metric.Dataset, k int, opt Options, workers int) *Result {
	var pool *Pool
	if w := parallelWorkers(workers, ds.N, ds.Dim); w > 1 && !preferBlocks(ds.N, min(k, ds.N), ds.Dim) {
		pool = NewPool(w)
		defer pool.Close()
	}
	return gonzalez(ds, nil, k, opt, pool, true, false)
}

// GonzalezPooled runs the farthest-first traversal on an existing Pool,
// using exactly min(pool.Workers(), n) workers with no adaptive trimming —
// the caller has already sized the pool (and amortizes its construction
// across calls). A non-nil pool is used even where the sequential blocked
// traversal would be faster, so the pooled-Gonzalez scaling sweep measures
// the pool. A nil pool runs the sequential traversal, blocked where
// preferBlocks says it pays. Results are
// bit-identical to Gonzalez for every pool size. It panics on k <= 0 or an
// empty dataset, like Gonzalez.
func GonzalezPooled(ds *metric.Dataset, k int, opt Options, pool *Pool) *Result {
	return gonzalez(ds, nil, k, opt, pool, true, false)
}

// pooledRelax is one relaxation pass split across a pool: worker w relaxes
// the contiguous chunk [w·chunk, (w+1)·chunk) of a shared minSq and records
// its chunk's farthest point in its own padded slot.
type pooledRelax struct {
	pool     *Pool
	ds       *metric.Dataset
	minSq    []float64
	chunk    int
	cp       []float64 // the newest center, set by the coordinator each round
	partials []partial
	round    func(w int)
}

type partial struct {
	next int
	far  float64
	_pad [6]int64 // avoid false sharing between workers' slots
}

func newPooledRelax(pool *Pool, ds *metric.Dataset, minSq []float64) *pooledRelax {
	workers := min(pool.Workers(), ds.N)
	p := &pooledRelax{
		pool:     pool,
		ds:       ds,
		minSq:    minSq,
		chunk:    (ds.N + workers - 1) / workers,
		partials: make([]partial, workers),
	}
	// One round function shared by every round: the pool's channel
	// send/receive pair orders the coordinator's write of cp against the
	// workers' reads.
	p.round = p.relaxChunk
	return p
}

func (p *pooledRelax) relaxChunk(w int) {
	lo, hi := w*p.chunk, min((w+1)*p.chunk, p.ds.N)
	// An empty trailing chunk (lo >= hi) reports far = -1 and never wins
	// the reduction below.
	p.partials[w].next, p.partials[w].far = metric.RelaxFarthest(p.ds, lo, hi, p.cp, p.minSq)
}

// relax runs one pass against center point cp and returns the farthest
// point and its squared distance, exactly as one metric.RelaxFarthest call
// over [0, n) would.
func (p *pooledRelax) relax(cp []float64) (int, float64) {
	p.cp = cp
	p.pool.RunN(len(p.partials), p.round)
	// Deterministic max-reduction: strictly-greater comparison over
	// workers in index order reproduces the sequential argmax (lowest
	// index among ties).
	next, far := 0, -1.0
	for _, pt := range p.partials {
		if pt.far > far {
			next, far = pt.next, pt.far
		}
	}
	return next, far
}
