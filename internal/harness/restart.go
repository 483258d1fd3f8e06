// Restart experiment: measure what checkpoint/restore persistence buys a
// serving deployment. A server is loaded over HTTP, checkpointed and
// "killed"; recovery is then timed twice — warm (restore the O(shards·k)
// checkpoint and serve immediately) and cold (replay the whole feed into a
// fresh server) — and the experiment verifies the warm start resumes with
// exactly the center set, bounds and version counters that were
// checkpointed.

package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"kcenter/internal/metric"
	"kcenter/internal/server"
)

// RestartSpec describes one kill-and-recover run.
type RestartSpec struct {
	// K is the number of centers.
	K int
	// Shards is the ingestion shard count; 0 means 1.
	Shards int
	// Batch is the points per ingest request; 0 means 512.
	Batch int
}

// RestartMeasurement is the outcome of one kill-and-recover run.
type RestartMeasurement struct {
	// WarmMs is the time from starting a checkpoint-restoring server to its
	// first successful assign: restore cost, independent of stream length.
	WarmMs float64
	// ColdMs is the time from starting an empty server to having replayed
	// the entire feed and served an assign over it: recovery without
	// persistence, linear in the stream.
	ColdMs float64
	// CheckpointBytes is the on-disk checkpoint size (O(shards·k), not O(n)).
	CheckpointBytes int64
	// Ingested is the number of points the killed server had clustered.
	Ingested int64
	// StateMatches reports whether the warm start resumed with the identical
	// snapshot: same center coordinates, certified radius and center-set
	// version the killed server checkpointed.
	StateMatches bool
}

// restartCenters is the slice of a /v1/centers reply the state check
// compares. The snapshot's own ingested count is left out: a cached
// snapshot keeps the count of its last center change.
type restartCenters struct {
	Snapshot struct {
		Version    uint64  `json:"version"`
		Radius     float64 `json:"radius"`
		LowerBound float64 `json:"lower_bound"`
	} `json:"snapshot"`
	Centers [][]float64 `json:"centers"`
}

// firstAssign waits for n's first served assign and returns the snapshot
// it answered from.
func firstAssign(n *node, ds *metric.Dataset) (restartCenters, error) {
	var c restartCenters
	cl := n.client("")
	if err := cl.awaitAssign(rows(ds, 0, 1)); err != nil {
		return c, err
	}
	return c, cl.get("/v1/centers", &c)
}

// RunRestart loads a checkpointing server with ds over loopback HTTP, kills
// it after a checkpoint, and measures warm (restore) versus cold (replay)
// recovery to a serving state.
func RunRestart(ds *metric.Dataset, spec RestartSpec) (RestartMeasurement, error) {
	shards := max(spec.Shards, 1)
	batch := spec.Batch
	if batch <= 0 {
		batch = 512
	}
	dir, err := os.MkdirTemp("", "kcenter-restart-")
	if err != nil {
		return RestartMeasurement{}, err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "serve.ckpt")

	// Phase 1: the to-be-killed server. The long interval keeps the
	// background loop out of the measurement; the experiment checkpoints
	// explicitly at the kill point.
	cfg := server.Config{K: spec.K, Shards: shards, MaxBatch: batch,
		CheckpointPath: ckpt, CheckpointInterval: time.Hour}
	n1, err := startNode(cfg)
	if err != nil {
		return RestartMeasurement{}, err
	}
	var killed restartCenters
	var killedCkpt []byte
	err = n1.client("").ingestAll(ds, batch)
	if err == nil {
		err = n1.svc.CheckpointNow()
	}
	if err == nil {
		killed, err = firstAssign(n1, ds)
	}
	if err == nil {
		killedCkpt, err = os.ReadFile(ckpt)
	}
	if err != nil {
		n1.close()
		return RestartMeasurement{}, err
	}
	// The graceful close only reclaims goroutines; recovery below uses
	// exactly the state frozen at CheckpointNow, as a kill would leave it.
	if _, err := n1.close(); err != nil {
		return RestartMeasurement{}, err
	}
	if err := os.WriteFile(ckpt, killedCkpt, 0o644); err != nil {
		return RestartMeasurement{}, err
	}

	m := RestartMeasurement{
		Ingested:        int64(ds.N), // ingestAll returned once the shards had consumed all of ds
		CheckpointBytes: int64(len(killedCkpt)),
	}

	// Phase 2: warm recovery — restore the checkpoint, serve.
	warmStart := time.Now()
	n2, err := startNode(cfg)
	if err != nil {
		return RestartMeasurement{}, err
	}
	resumed, err := firstAssign(n2, ds)
	if err != nil {
		n2.close()
		return RestartMeasurement{}, err
	}
	m.WarmMs = msSince(warmStart)
	rs := n2.svc.Restored()
	m.StateMatches = rs != nil && rs.CentersVersion == killed.Snapshot.Version && rs.Ingested == m.Ingested &&
		resumed.Snapshot == killed.Snapshot && reflect.DeepEqual(resumed.Centers, killed.Centers)
	if _, err := n2.close(); err != nil {
		return RestartMeasurement{}, err
	}

	// Phase 3: cold recovery — no checkpoint, replay the feed.
	coldStart := time.Now()
	n3, err := startNode(server.Config{K: spec.K, Shards: shards, MaxBatch: batch})
	if err != nil {
		return RestartMeasurement{}, err
	}
	err = n3.client("").ingestAll(ds, batch)
	if err == nil {
		_, err = firstAssign(n3, ds)
	}
	if err != nil {
		n3.close()
		return RestartMeasurement{}, err
	}
	m.ColdMs = msSince(coldStart)
	if _, err := n3.close(); err != nil {
		return RestartMeasurement{}, err
	}
	return m, nil
}

func init() {
	registry = append(registry, Experiment{
		ID:    "restart",
		Title: "Checkpoint/restore: warm vs cold recovery after a serving-layer kill",
		Paper: "Not in the paper — extension: persistence of the O(shards·k) doubling state behind the HTTP service",
		Run: func(cfg RunConfig, w io.Writer) error {
			cfg = cfg.withDefaults()
			n := cfg.scaled(200_000)
			ds := genGau(25)(n, cfg.Seed)
			fmt.Fprintf(w, "GAU k'=25 n=%d, k=25, shards=4, batch=512; recovery to first served assign, ms\n", n)
			fmt.Fprintf(w, "%10s %10s %10s %12s %10s %8s\n",
				"warm-ms", "cold-ms", "speedup", "ckpt-bytes", "ingested", "exact")
			m, err := RunRestart(ds, RestartSpec{K: 25, Shards: 4})
			if err != nil {
				return err
			}
			speedup := 0.0
			if m.WarmMs > 0 {
				speedup = m.ColdMs / m.WarmMs
			}
			fmt.Fprintf(w, "%10.2f %10.2f %9.1fx %12d %10d %8v\n",
				m.WarmMs, m.ColdMs, speedup, m.CheckpointBytes, m.Ingested, m.StateMatches)
			return nil
		},
	})
}
