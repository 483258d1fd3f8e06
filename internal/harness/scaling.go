// Multicore scaling experiment: how the pooled parallel Gonzalez traversal
// and the sharded stream ingester behave as workers/shards grow on the host
// actually running them. The paper distributes across machines; this
// experiment measures the single-machine analogue — and, critically, makes
// regressions visible: before the persistent worker pool and slab channel
// handoff, both rows got *slower* with more cores. Each row reports wall
// time and speedup relative to the 1-worker (1-shard) configuration, and
// the header records NumCPU/GOMAXPROCS so a 1-vCPU CI parity run is not
// mistaken for a scaling failure (see ARCHITECTURE.md, "Parallel execution
// model").

package harness

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"kcenter/internal/core"
)

// ScalingMeasurement is one (workers, wall-time) cell of the sweep.
type ScalingMeasurement struct {
	// Workers is the requested worker or shard count.
	Workers int
	// Seconds is the best-of-Repeats wall time (best, not mean: scaling
	// sweeps quantify capacity, and the minimum is the least noisy
	// estimator of it on a shared host).
	Seconds float64
	// Speedup is the 1-worker row's Seconds divided by this row's.
	Speedup float64
}

// runScalingSweep times fn (already bound to a workload) at each worker
// count, best of reps runs, and fills in speedups relative to counts[0].
func runScalingSweep(counts []int, reps int, fn func(workers int)) []ScalingMeasurement {
	out := make([]ScalingMeasurement, len(counts))
	for i, w := range counts {
		best := 0.0
		for r := 0; r < reps; r++ {
			start := time.Now()
			fn(w)
			if sec := time.Since(start).Seconds(); r == 0 || sec < best {
				best = sec
			}
		}
		out[i] = ScalingMeasurement{Workers: w, Seconds: best}
	}
	base := out[0].Seconds
	for i := range out {
		out[i].Speedup = base / out[i].Seconds
	}
	return out
}

func writeScalingRows(w io.Writer, label string, rows []ScalingMeasurement) {
	for _, m := range rows {
		fmt.Fprintf(w, "%-10s %7d %12.1f %10.2fx\n", label, m.Workers, m.Seconds*1000, m.Speedup)
	}
}

// scalingReport runs both sweeps — pooled Gonzalez traversal and sharded
// stream ingestion — over the same generated workload and writes the table.
func scalingReport(cfg RunConfig, w io.Writer) error {
	cfg = cfg.withDefaults()
	n := cfg.scaled(200_000)
	const k = 50
	counts := []int{1, 2, 4}
	ds := genUnif(n, cfg.Seed)

	fmt.Fprintf(w, "multicore scaling, n=%d k=%d, best of %d runs; NumCPU=%d GOMAXPROCS=%d\n",
		n, k, cfg.Repeats, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-10s %7s %12s %10s\n", "sweep", "workers", "wall ms", "speedup")

	// The pooled traversal is forced through GonzalezPooled (not the
	// adaptive GonzalezParallel front door) so the row measures the pool
	// itself; the adaptive path would trim the worker count on hosts where
	// parallelism cannot pay, turning every row into the serial baseline.
	var gonRef *core.Result
	gon := runScalingSweep(counts, cfg.Repeats, func(workers int) {
		// A 1-worker pool, not a nil one: with no pool the traversal may
		// take the blocked layout, which is not what this sweep scales.
		pool := core.NewPool(workers)
		defer pool.Close()
		res := core.GonzalezPooled(ds, k, core.Options{First: 0}, pool)
		if gonRef == nil {
			gonRef = res
		} else if res.Radius != gonRef.Radius {
			panic(fmt.Sprintf("scaling: workers=%d radius %v != sequential %v",
				workers, res.Radius, gonRef.Radius))
		}
	})
	writeScalingRows(w, "gonzalez", gon)

	ingest := runScalingSweep(counts, cfg.Repeats, func(shards int) {
		if _, err := RunStream(ds, StreamSpec{K: k, Shards: shards}); err != nil {
			panic(err)
		}
	})
	writeScalingRows(w, "ingest", ingest)

	if runtime.NumCPU() < counts[len(counts)-1] {
		fmt.Fprintf(w, "note: host has %d CPU(s); parity (speedup ~1.0x) is the ceiling here\n",
			runtime.NumCPU())
	}
	return nil
}

func init() {
	registry = append(registry, Experiment{
		ID:    "scaling",
		Title: "Multicore scaling: pooled Gonzalez workers and sharded ingest shards, 1/2/4",
		Paper: "Not in the paper — single-machine analogue of its cluster scaling; fixes the negative-scaling regression",
		Run:   scalingReport,
	})
}
