// Multicore scaling experiment: how sharded stream ingestion behaves as the
// shard count grows on the host actually running it. The paper distributes
// across machines; this experiment measures the single-machine analogue —
// and makes regressions visible: before the slab channel handoff, ingest
// got *slower* with more shards. Each row reports wall time and speedup
// relative to the 1-shard configuration, and the header records
// NumCPU/GOMAXPROCS so a 1-vCPU CI parity run is not mistaken for a scaling
// failure (see ARCHITECTURE.md, "Parallel execution model").

package harness

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// scalingReport times sharded stream ingestion of one generated workload at
// 1, 2 and 4 shards and writes one row per count: the best-of-Repeats wall
// time (best, not mean: a scaling sweep quantifies capacity, and the
// minimum is the least noisy estimator of it on a shared host) and the
// speedup over the 1-shard row.
func scalingReport(cfg RunConfig, w io.Writer) error {
	cfg = cfg.withDefaults()
	n := cfg.scaled(200_000)
	const k = 50
	counts := []int{1, 2, 4}
	ds := genUnif(n, cfg.Seed)

	fmt.Fprintf(w, "multicore scaling, n=%d k=%d, best of %d runs; NumCPU=%d GOMAXPROCS=%d\n",
		n, k, cfg.Repeats, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-10s %7s %12s %10s\n", "sweep", "shards", "wall ms", "speedup")

	var base float64
	for _, shards := range counts {
		best := 0.0
		for r := 0; r < cfg.Repeats; r++ {
			start := time.Now()
			if _, err := RunStream(ds, StreamSpec{K: k, Shards: shards}); err != nil {
				return err
			}
			if sec := time.Since(start).Seconds(); r == 0 || sec < best {
				best = sec
			}
		}
		if base == 0 {
			base = best
		}
		fmt.Fprintf(w, "%-10s %7d %12.1f %10.2fx\n", "ingest", shards, best*1000, base/best)
	}

	if runtime.NumCPU() < counts[len(counts)-1] {
		fmt.Fprintf(w, "note: host has %d CPU(s); parity (speedup ~1.0x) is the ceiling here\n",
			runtime.NumCPU())
	}
	return nil
}

func init() {
	registry = append(registry, Experiment{
		ID:    "scaling",
		Title: "Multicore scaling: sharded ingest shards, 1/2/4",
		Paper: "Not in the paper — single-machine analogue of its cluster scaling; guards the negative-scaling regression",
		Run:   scalingReport,
	})
}
