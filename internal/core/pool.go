// Persistent worker pool for the shared-memory parallel traversal.
//
// The first version of GonzalezParallel spawned a fresh goroutine per
// worker per round: k rounds × workers goroutine creations plus a
// WaitGroup barrier each round. At k = 100 the spawn/park/barrier traffic
// (microseconds per goroutine) swamps the O(n·dim/workers) relaxation a
// round actually performs, which is how the benchmark ended up *slower*
// at workers=4 than workers=1. A Pool instead parks `workers` long-lived
// goroutines on per-worker round channels: dispatching a round costs one
// channel send per worker and one completion receive each — two orders of
// magnitude cheaper than a spawn — and the goroutines (with their warm
// stacks) live for the whole traversal, or across traversals when the
// caller reuses the Pool.

package core

import "sync"

// Pool is a fixed set of long-lived worker goroutines that execute
// "rounds": the same function invoked once per worker, with a barrier
// after each round. It exists so per-round parallel work (the Gonzalez
// relaxation, one round per center) pays channel-signal cost rather than
// goroutine-spawn cost.
//
// A Pool is safe for concurrent use — each RunN round is dispatched
// atomically under an internal mutex — but rounds from concurrent callers
// serialize, so the intended pattern is one traversal at a time per Pool
// (reuse across sequential calls, e.g. a server's snapshot merges). Close
// releases the goroutines; using a closed Pool panics.
type Pool struct {
	rounds []chan func(w int)
	done   chan struct{}
	mu     sync.Mutex
}

// NewPool starts workers long-lived goroutines parked on their round
// channels. workers < 1 is clamped to 1. The caller owns the Pool and
// must Close it to release the goroutines.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		rounds: make([]chan func(w int), workers),
		done:   make(chan struct{}, workers),
	}
	for w := range p.rounds {
		p.rounds[w] = make(chan func(w int), 1)
		go func(w int) {
			for fn := range p.rounds[w] {
				fn(w)
				p.done <- struct{}{}
			}
		}(w)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.rounds) }

// RunN executes fn(w) on workers 0..n-1 and returns when all have
// finished — one round with a full barrier; n is clamped to the pool
// size. fn must not call RunN on the same Pool (it would deadlock behind
// the round mutex).
func (p *Pool) RunN(n int, fn func(w int)) {
	if n > len(p.rounds) {
		n = len(p.rounds)
	}
	if n <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for w := 0; w < n; w++ {
		p.rounds[w] <- fn
	}
	for w := 0; w < n; w++ {
		<-p.done
	}
}

// Close releases the worker goroutines. It must be called exactly once,
// after all RunN calls have returned.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ch := range p.rounds {
		close(ch)
	}
}
