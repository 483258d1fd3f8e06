// Replicated-serving experiment: a two-node topology over real loopback
// HTTP — a leader ingesting the stream and gossiping its exported state,
// a follower that never ingests a point serving assignment queries from
// the folded summaries. Reports what an operator deciding on replication
// needs: how stale the follower runs (the gossip lag behind the leader),
// the follower's assignment latency percentiles while folds land under
// load, and whether the two nodes converge to byte-identical centers once
// the stream quiesces — the merge algebra's guarantee, observed end to end.

package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"kcenter/internal/metric"
	"kcenter/internal/server"
)

// ReplicateSpec describes one replicated-serving run.
type ReplicateSpec struct {
	// K is the number of centers.
	K int
	// Shards is the leader's ingestion shard count; 0 means 1.
	Shards int
	// Clients is the number of concurrent assign clients driving the
	// follower; 0 means 1.
	Clients int
	// Batch is the points per ingest request and queries per assign
	// request; 0 means 256.
	Batch int
	// Interval is the leader's push period; 0 means 50ms.
	Interval time.Duration
}

// ReplicateMeasurement is the outcome of one replicated-serving run.
type ReplicateMeasurement struct {
	// AssignP50/AssignP99 are follower assign latencies in milliseconds,
	// measured while gossip folds land.
	AssignP50, AssignP99 float64
	// StalenessP50Ms/StalenessMaxMs summarize the follower's sampled lag
	// behind the leader: seconds since the last applied fold, sampled at
	// twice the push rate. The saw-tooth's typical value tracks the push
	// interval; the max shows the worst lag the follower served at.
	StalenessP50Ms, StalenessMaxMs float64
	// Folds is how many pushes the follower applied.
	Folds int64
	// ConvergeMs is the gap between the leader's stream draining and the
	// first moment the follower served centers byte-identical to the
	// leader's.
	ConvergeMs float64
	// Converged confirms the byte-identical final state was reached.
	Converged bool
	// AssignRequests is the number of completed follower assigns.
	AssignRequests int
}

// RunServeReplicate drives the two-node topology over ds and measures the
// follower.
func RunServeReplicate(ds *metric.Dataset, spec ReplicateSpec) (ReplicateMeasurement, error) {
	spec.Shards = max(spec.Shards, 1)
	spec.Clients = max(spec.Clients, 1)
	if spec.Batch <= 0 {
		spec.Batch = 256
	}
	if spec.Interval <= 0 {
		spec.Interval = 50 * time.Millisecond
	}
	var m ReplicateMeasurement

	fn, err := startNode(server.Config{K: spec.K, Shards: spec.Shards, NodeID: "follower"})
	if err != nil {
		return m, err
	}
	defer fn.close()
	ln, err := startNode(server.Config{
		K: spec.K, Shards: spec.Shards, NodeID: "leader",
		ReplicatePeers:    []string{fn.ts.URL},
		ReplicateInterval: spec.Interval,
	})
	if err != nil {
		return m, err
	}
	defer ln.close()
	leader, follower := ln.client(""), fn.client("")

	// The staleness sampler and the assign clients run until stop, which
	// every return path calls before the nodes close.
	done := make(chan struct{})
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() {
		close(done)
		wg.Wait()
	})
	defer stop()

	// Staleness sampler: the follower's lag behind the leader, at twice the
	// push rate. sample records one reading.
	var stalenessMs []float64
	var folds int64
	sample := func() {
		st, err := follower.stats()
		if err != nil || st.Replication == nil || len(st.Replication.Origins) != 1 {
			return
		}
		o := st.Replication.Origins[0]
		folds = o.Merges
		if o.Merges > 0 {
			stalenessMs = append(stalenessMs, o.StalenessSeconds*1000)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(spec.Interval / 2)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				sample()
			}
		}
	}()

	// Assign clients against the follower. 409s before the first fold (the
	// follower has no state yet) are skipped, not measured.
	queries := make([][]float64, spec.Batch)
	for i := range queries {
		queries[i] = ds.At(i % ds.N)
	}
	assignBody, err := pointsBody(queries)
	if err != nil {
		return m, err
	}
	lats := make([][]float64, spec.Clients)
	for c := range lats {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				t0 := time.Now()
				if code, err := follower.post("/v1/assign", assignBody); err == nil && code == http.StatusOK {
					lats[c] = append(lats[c], msSince(t0))
				}
			}
		}(c)
	}

	// The leader ingests the whole stream; ingestAll waits for its shards
	// to consume every point.
	if err := leader.ingestAll(ds, spec.Batch); err != nil {
		return m, fmt.Errorf("leader ingest: %w", err)
	}
	drained := time.Now()

	// Convergence: the follower serves centers byte-identical to the
	// leader's final set. The follower answers 409 until its first fold.
	centersOf := func(c *client) []byte {
		var cr struct {
			Centers json.RawMessage `json:"centers"`
		}
		_ = c.get("/v1/centers", &cr)
		return cr.Centers
	}
	convergeDeadline := time.Now().Add(30 * time.Second)
	for !m.Converged && time.Now().Before(convergeDeadline) {
		lc, fc := centersOf(leader), centersOf(follower)
		if len(lc) > 0 && bytes.Equal(lc, fc) {
			m.Converged = true
			m.ConvergeMs = msSince(drained)
			break
		}
		time.Sleep(spec.Interval / 4)
	}

	stop()
	var assignMs []float64
	for _, l := range lats {
		assignMs = append(assignMs, l...)
	}
	// One final authoritative sample: on a short stream the periodic
	// sampler can finish between folds, but the fold ledger is exact.
	sample()

	m.AssignP50 = percentile(assignMs, 0.50)
	m.AssignP99 = percentile(assignMs, 0.99)
	m.StalenessP50Ms = percentile(stalenessMs, 0.50)
	m.StalenessMaxMs = percentile(stalenessMs, 1.0)
	m.Folds = folds
	m.AssignRequests = len(assignMs)
	return m, nil
}

func init() {
	registry = append(registry, Experiment{
		ID:    "serve-replicate",
		Title: "Two-node replication: leader pushes ExportState, follower serves assigns; staleness lag and follower latency",
		Paper: "Not in the paper — extension: gossiped state summaries give read replicas within the sharded 10-approx bound",
		Run: func(cfg RunConfig, w io.Writer) error {
			cfg = cfg.withDefaults()
			n := cfg.scaled(100_000)
			ds := genGau(25)(n, cfg.Seed)
			fmt.Fprintf(w, "GAU k'=25 n=%d, k=25, shards=4, push interval 50ms; follower latencies in ms\n", n)
			fmt.Fprintf(w, "%8s %12s %12s %10s %12s %8s %12s %10s\n",
				"clients", "assign-p50", "assign-p99", "stale-p50", "stale-max", "folds", "converge-ms", "converged")
			for _, clients := range []int{1, 4} {
				m, err := RunServeReplicate(ds, ReplicateSpec{K: 25, Shards: 4, Clients: clients})
				if err != nil {
					return fmt.Errorf("clients=%d: %w", clients, err)
				}
				if !m.Converged {
					return fmt.Errorf("clients=%d: nodes did not converge to byte-identical centers", clients)
				}
				fmt.Fprintf(w, "%8d %12.3f %12.3f %10.1f %12.1f %8d %12.1f %10t\n",
					clients, m.AssignP50, m.AssignP99, m.StalenessP50Ms, m.StalenessMaxMs,
					m.Folds, m.ConvergeMs, m.Converged)
			}
			return nil
		},
	})
}
