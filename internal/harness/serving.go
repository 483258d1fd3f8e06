// Serving-layer load experiment: drive the HTTP clustering service with a
// mixed concurrent ingest+assign workload over real HTTP (loopback) and
// report end-to-end request latency percentiles and throughput. The paper
// measures algorithms; this experiment measures the serving layer those
// algorithms were made fast for — what a capacity plan for "heavy traffic
// from millions of users" starts from.

package harness

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"kcenter/internal/metric"
	"kcenter/internal/server"
)

// ServeSpec describes one serving load run.
type ServeSpec struct {
	// K is the number of centers.
	K int
	// Shards is the ingestion shard count; 0 means 1.
	Shards int
	// Clients is the number of concurrent client goroutines; 0 means 1.
	// Each client interleaves ingest batches with assign batches.
	Clients int
	// Batch is the points per ingest request and the queries per assign
	// request; 0 means 256.
	Batch int
	// AssignEvery makes each client issue one assign request after every
	// AssignEvery ingest requests; 0 means 1 (strict alternation).
	AssignEvery int
	// Telemetry arms this run's Service telemetry (server.Config.Telemetry).
	Telemetry bool
}

// ServeMeasurement is the outcome of one serving load run.
type ServeMeasurement struct {
	// IngestP50/IngestP99 are ingest request latencies in milliseconds.
	IngestP50, IngestP99 float64
	// AssignP50/AssignP99 are assign request latencies in milliseconds.
	AssignP50, AssignP99 float64
	// QPS is total completed requests (ingest + assign) per second of wall
	// time across all clients.
	QPS float64
	// IngestPointsPerSec is ingested points per second of wall time.
	IngestPointsPerSec float64
	// Requests is the total completed request count.
	Requests int
	// Ingested is the number of points accepted.
	Ingested int64
}

// RunServe splits ds across Clients concurrent clients, each POSTing its
// share as ingest batches interleaved with assign batches of sampled
// points, against a fresh service over loopback HTTP. The service is
// drained and closed before returning, so every accepted point is
// clustered.
func RunServe(ds *metric.Dataset, spec ServeSpec) (ServeMeasurement, error) {
	shards := max(spec.Shards, 1)
	clients := max(spec.Clients, 1)
	batch := spec.Batch
	if batch <= 0 {
		batch = 256
	}
	assignEvery := max(spec.AssignEvery, 1)

	n, err := startNode(server.Config{K: spec.K, Shards: shards, MaxBatch: batch, Telemetry: spec.Telemetry})
	if err != nil {
		return ServeMeasurement{}, err
	}
	// Seed one batch and wait for it to drain so assign requests never hit
	// the cold 409 window and every latency sample measures served traffic.
	seedN := min(batch, ds.N)
	if err := n.client("").warm(rows(ds, 0, seedN)); err != nil {
		n.close()
		return ServeMeasurement{}, err
	}

	type clientStats struct {
		ingestMs, assignMs []float64
		err                error
	}
	results := make([]clientStats, clients)
	chunk := (ds.N - seedN + clients - 1) / clients
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := n.client("")
			st := &results[c]
			lo := seedN + c*chunk
			bodies, err := batchBodies(ds, lo, min(lo+chunk, ds.N), batch)
			if err != nil {
				st.err = err
				return
			}
			for i, body := range bodies {
				t0 := time.Now()
				code, err := cl.post("/v1/ingest", body)
				if err == nil && code != http.StatusAccepted {
					err = fmt.Errorf("ingest status %d", code)
				}
				if err != nil {
					st.err = err
					return
				}
				st.ingestMs = append(st.ingestMs, msSince(t0))
				if (i+1)%assignEvery == 0 {
					t0 = time.Now()
					code, err := cl.post("/v1/assign", body)
					if err == nil && code != http.StatusOK {
						err = fmt.Errorf("assign status %d", code)
					}
					if err != nil {
						st.err = err
						return
					}
					st.assignMs = append(st.assignMs, msSince(t0))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	res, closeErr := n.close()
	if closeErr != nil {
		return ServeMeasurement{}, closeErr
	}
	var ingestMs, assignMs []float64
	for c := range results {
		if results[c].err != nil {
			return ServeMeasurement{}, results[c].err
		}
		ingestMs = append(ingestMs, results[c].ingestMs...)
		assignMs = append(assignMs, results[c].assignMs...)
	}
	m := ServeMeasurement{
		IngestP50:          percentile(ingestMs, 0.50),
		IngestP99:          percentile(ingestMs, 0.99),
		AssignP50:          percentile(assignMs, 0.50),
		AssignP99:          percentile(assignMs, 0.99),
		QPS:                float64(len(ingestMs)+len(assignMs)) / elapsed,
		IngestPointsPerSec: float64(res.Ingested) / elapsed,
		// The seed ingest and warm-up's final assign count too; the cold
		// 409 polls before it do not.
		Requests: 2 + len(ingestMs) + len(assignMs),
		Ingested: res.Ingested,
	}
	return m, nil
}

func init() {
	registry = append(registry, Experiment{
		ID:    "serve",
		Title: "Serving layer: concurrent ingest+assign over HTTP, latency percentiles and QPS",
		Paper: "Not in the paper — extension: the streaming substrate behind an HTTP service with snapshot-isolated assignment",
		Run: func(cfg RunConfig, w io.Writer) error {
			cfg = cfg.withDefaults()
			n := cfg.scaled(200_000)
			ds := genGau(25)(n, cfg.Seed)
			fmt.Fprintf(w, "GAU k'=25 n=%d, k=25, shards=4, batch=256, one assign per ingest; latencies in ms\n", n)
			fmt.Fprintf(w, "%8s %12s %12s %12s %12s %10s %12s\n",
				"clients", "ingest-p50", "ingest-p99", "assign-p50", "assign-p99", "QPS", "ingest-pts/s")
			for _, clients := range []int{1, 4, 8} {
				m, err := RunServe(ds, ServeSpec{K: 25, Shards: 4, Clients: clients})
				if err != nil {
					return fmt.Errorf("clients=%d: %w", clients, err)
				}
				fmt.Fprintf(w, "%8d %12.3f %12.3f %12.3f %12.3f %10.0f %12.4g\n",
					clients, m.IngestP50, m.IngestP99, m.AssignP50, m.AssignP99, m.QPS, m.IngestPointsPerSec)
			}
			return nil
		},
	})
}
