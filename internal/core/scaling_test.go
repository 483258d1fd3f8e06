package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"kcenter/internal/dataset"
	"kcenter/internal/rng"
)

// TestGonzalezPooledMatchesSequential pins the worker pool's bit-identity
// contract: for every pool size, GonzalezPooled returns exactly the centers,
// radius and per-point distances of the sequential traversal. One pool per
// size is reused across all trials, exercising the persistent-goroutine
// round signaling (not just a fresh pool's first round).
func TestGonzalezPooledMatchesSequential(t *testing.T) {
	r := rng.New(11)
	for _, workers := range []int{2, 3, 4, 8, 16} {
		pool := NewPool(workers)
		for trial := 0; trial < 10; trial++ {
			n := 50 + r.Intn(1500)
			dim := 1 + r.Intn(6)
			k := 1 + r.Intn(12)
			ds := randomDataset(t, r, n, dim)
			seq := Gonzalez(ds, k, Options{})
			par := GonzalezPooled(ds, k, Options{}, pool)
			if len(par.Centers) != len(seq.Centers) {
				t.Fatalf("workers=%d trial %d: %d centers vs %d",
					workers, trial, len(par.Centers), len(seq.Centers))
			}
			for i := range seq.Centers {
				if par.Centers[i] != seq.Centers[i] {
					t.Fatalf("workers=%d trial %d: center %d differs: %d vs %d",
						workers, trial, i, par.Centers[i], seq.Centers[i])
				}
			}
			if par.Radius != seq.Radius {
				t.Fatalf("workers=%d trial %d: radius %v vs %v",
					workers, trial, par.Radius, seq.Radius)
			}
			for i := range seq.MinDist {
				if par.MinDist[i] != seq.MinDist[i] {
					t.Fatalf("workers=%d trial %d: MinDist[%d] %v vs %v",
						workers, trial, i, par.MinDist[i], seq.MinDist[i])
				}
			}
		}
		pool.Close()
	}
}

// TestGonzalezPooledTieBreaking stresses the deterministic max-reduction on
// a grid with many exactly-equidistant points: every pool size must
// reproduce the sequential tie-breaks (lowest index wins) exactly.
func TestGonzalezPooledTieBreaking(t *testing.T) {
	pts := make([][]float64, 0, 256)
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			pts = append(pts, []float64{float64(x), float64(y)})
		}
	}
	ds := mustDataset(t, pts)
	seq := Gonzalez(ds, 9, Options{})
	for _, workers := range []int{2, 3, 5, 8, 64, 300} {
		pool := NewPool(workers)
		par := GonzalezPooled(ds, 9, Options{}, pool)
		pool.Close()
		for i := range seq.Centers {
			if par.Centers[i] != seq.Centers[i] {
				t.Fatalf("workers=%d: tie-broken center %d differs (%d vs %d)",
					workers, i, par.Centers[i], seq.Centers[i])
			}
		}
	}
}

// TestPoolConcurrentTraversals runs several traversals against one shared
// Pool from concurrent goroutines (the server snapshot-merge pattern);
// rounds serialize inside the pool and every caller must still get the
// sequential answer. Run under -race by the tier-1 gate.
func TestPoolConcurrentTraversals(t *testing.T) {
	r := rng.New(13)
	ds := randomDataset(t, r, 3000, 2)
	seq := Gonzalez(ds, 8, Options{})
	pool := NewPool(3)
	defer pool.Close()
	const callers = 6
	errc := make(chan string, callers)
	for c := 0; c < callers; c++ {
		go func() {
			par := GonzalezPooled(ds, 8, Options{}, pool)
			for i := range seq.Centers {
				if par.Centers[i] != seq.Centers[i] {
					errc <- "concurrent pooled traversal diverged from sequential"
					return
				}
			}
			errc <- ""
		}()
	}
	for c := 0; c < callers; c++ {
		if msg := <-errc; msg != "" {
			t.Fatal(msg)
		}
	}
}

// TestGonzalezParallelAdaptiveCutoff pins the front door's trimming: tiny
// rounds (n·dim below the serial cutoff) and single-core hosts fall back
// to the sequential traversal, and the result is identical either way.
func TestGonzalezParallelAdaptiveCutoff(t *testing.T) {
	if w := parallelWorkers(8, 100, 2); w > 1 {
		t.Fatalf("parallelWorkers(8, 100, 2) = %d, want <= 1 (below cutoff)", w)
	}
	if w := parallelWorkers(4, 1<<20, 2); w > runtime.GOMAXPROCS(0) {
		t.Fatalf("parallelWorkers exceeded GOMAXPROCS: %d", w)
	}
	r := rng.New(14)
	ds := randomDataset(t, r, 400, 2)
	seq := Gonzalez(ds, 5, Options{})
	par := GonzalezParallel(ds, 5, Options{}, 8)
	for i := range seq.Centers {
		if par.Centers[i] != seq.Centers[i] {
			t.Fatal("adaptive fallback diverged from sequential")
		}
	}
}

// TestGonzalezParallelScalesWithCores is the scaling sanity guard: on a
// host with real parallelism, 4 workers must not be slower than 1 beyond
// noise. It measures the best of several runs (the scheduler's best case)
// and allows 15% slack; the point is to catch the negative-scaling
// regression class (per-round goroutine spawns), not to assert a speedup
// ratio, which belongs to the harness scaling experiment.
func TestGonzalezParallelScalesWithCores(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("host has %d CPUs; scaling guard needs >= 4", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short mode")
	}
	l := dataset.Unif(dataset.UnifConfig{N: 120000, Seed: 21})
	best := func(workers int) time.Duration {
		b := time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			GonzalezParallel(l.Points, 40, Options{}, workers)
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	one, four := best(1), best(4)
	if float64(four) > 1.15*float64(one) {
		t.Fatalf("negative scaling: workers=4 took %v vs workers=1 %v", four, one)
	}
}
