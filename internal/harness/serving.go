// Serving-layer load experiment: drive the HTTP clustering service with a
// mixed concurrent ingest+assign workload over real HTTP (loopback) and
// report end-to-end request latency percentiles and throughput. The paper
// measures algorithms; this experiment measures the serving layer those
// algorithms were made fast for — what a capacity plan for "heavy traffic
// from millions of users" starts from.

package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
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

// percentile returns the p-quantile (0 < p <= 1) of xs by the nearest-rank
// method; 0 for empty input. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// RunServe splits ds across Clients concurrent clients, each POSTing its
// share as ingest batches interleaved with assign batches of sampled
// points, against a fresh service over loopback HTTP. The service is
// drained and closed before returning, so every accepted point is
// clustered.
func RunServe(ds *metric.Dataset, spec ServeSpec) (ServeMeasurement, error) {
	shards := spec.Shards
	if shards <= 0 {
		shards = 1
	}
	clients := spec.Clients
	if clients <= 0 {
		clients = 1
	}
	batch := spec.Batch
	if batch <= 0 {
		batch = 256
	}
	assignEvery := spec.AssignEvery
	if assignEvery <= 0 {
		assignEvery = 1
	}

	svc, err := server.New(server.Config{K: spec.K, Shards: shards, MaxBatch: batch, Telemetry: spec.Telemetry})
	if err != nil {
		return ServeMeasurement{}, err
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(client *http.Client, path string, body []byte) (int, error) {
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	marshal := func(pts [][]float64) ([]byte, error) {
		return json.Marshal(struct {
			Points [][]float64 `json:"points"`
		}{pts})
	}

	// Seed one batch and wait for it to drain so assign requests never hit
	// the cold 409 window and every latency sample measures served traffic.
	seedN := batch
	if seedN > ds.N {
		seedN = ds.N
	}
	seed := make([][]float64, seedN)
	for i := range seed {
		seed[i] = ds.At(i)
	}
	seedBody, err := marshal(seed)
	if err != nil {
		return ServeMeasurement{}, err
	}
	if code, err := post(ts.Client(), "/v1/ingest", seedBody); err != nil || code != http.StatusAccepted {
		return ServeMeasurement{}, fmt.Errorf("seed ingest: code %d err %w", code, err)
	}
	warmDeadline := time.Now().Add(30 * time.Second)
	for {
		code, err := post(ts.Client(), "/v1/assign", seedBody)
		if err != nil {
			return ServeMeasurement{}, err
		}
		if code == http.StatusOK {
			break
		}
		if time.Now().After(warmDeadline) {
			return ServeMeasurement{}, fmt.Errorf("serve warmup: assign still %d", code)
		}
		time.Sleep(time.Millisecond)
	}

	type clientStats struct {
		ingestMs, assignMs []float64
		err                error
	}
	stats := make([]clientStats, clients)
	rest := ds.N - seedN
	chunk := (rest + clients - 1) / clients
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 60 * time.Second}
			st := &stats[c]
			lo, hi := seedN+c*chunk, seedN+(c+1)*chunk
			if hi > ds.N {
				hi = ds.N
			}
			sinceAssign := 0
			for b := lo; b < hi; b += batch {
				be := b + batch
				if be > hi {
					be = hi
				}
				pts := make([][]float64, 0, be-b)
				for i := b; i < be; i++ {
					pts = append(pts, ds.At(i))
				}
				body, err := marshal(pts)
				if err != nil {
					st.err = err
					return
				}
				t0 := time.Now()
				code, err := post(client, "/v1/ingest", body)
				if err != nil {
					st.err = err
					return
				}
				if code != http.StatusAccepted {
					st.err = fmt.Errorf("ingest status %d", code)
					return
				}
				st.ingestMs = append(st.ingestMs, float64(time.Since(t0).Microseconds())/1e3)
				sinceAssign++
				if sinceAssign >= assignEvery {
					sinceAssign = 0
					t0 = time.Now()
					code, err := post(client, "/v1/assign", body)
					if err != nil {
						st.err = err
						return
					}
					if code != http.StatusOK {
						st.err = fmt.Errorf("assign status %d", code)
						return
					}
					st.assignMs = append(st.assignMs, float64(time.Since(t0).Microseconds())/1e3)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	ts.Close()
	res, closeErr := svc.Close(context.Background())
	if closeErr != nil {
		return ServeMeasurement{}, closeErr
	}
	var ingestMs, assignMs []float64
	requests := 1 + 1 // seed ingest + warmup's final assign (others uncounted)
	for c := range stats {
		if stats[c].err != nil {
			return ServeMeasurement{}, stats[c].err
		}
		ingestMs = append(ingestMs, stats[c].ingestMs...)
		assignMs = append(assignMs, stats[c].assignMs...)
	}
	requests += len(ingestMs) + len(assignMs)
	m := ServeMeasurement{
		IngestP50:          percentile(ingestMs, 0.50),
		IngestP99:          percentile(ingestMs, 0.99),
		AssignP50:          percentile(assignMs, 0.50),
		AssignP99:          percentile(assignMs, 0.99),
		QPS:                float64(len(ingestMs)+len(assignMs)) / elapsed,
		IngestPointsPerSec: float64(res.Ingested) / elapsed,
		Requests:           requests,
		Ingested:           res.Ingested,
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
