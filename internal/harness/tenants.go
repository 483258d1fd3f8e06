// Multi-tenant isolation experiment: one tenant hammers the service with
// concurrent ingest+assign traffic while a quiet tenant issues sparse
// assign queries, and the measurement is what the noise does to the quiet
// tenant's latency. Tenant isolation is structural (per-tenant ingesters,
// queues, workers and snapshot caches share only the scheduler and the
// listener), so the quiet tenant's p99 should move by queue-contention
// noise — not collapse — when its neighbor goes hot.

package harness

import (
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"kcenter/internal/metric"
	"kcenter/internal/server"
)

// TenantServeSpec describes one multi-tenant isolation run.
type TenantServeSpec struct {
	// K is the per-tenant center budget.
	K int
	// Shards is the per-tenant ingestion shard count; 0 means 1.
	Shards int
	// HotClients is the number of concurrent client goroutines feeding the
	// hot tenant; 0 means 4.
	HotClients int
	// HotPointsPerSec is the hot tenant's total offered ingest load in
	// points per second, split across HotClients; 0 means 50000. A fixed
	// offered load (rather than closed-loop saturation) is what makes the
	// isolation ratio meaningful: the hot tenant is a heavy live feed, and
	// the question is what that feed does to a quiet neighbor — not how a
	// fully saturated CPU schedules two starved workloads.
	HotPointsPerSec int
	// Batch is the points per ingest request and the queries per assign
	// request; 0 means 256.
	Batch int
	// QuietAssigns is how many sparse assign requests the quiet tenant
	// issues per phase (solo, then contended); 0 means 200.
	QuietAssigns int
}

// TenantServeMeasurement is the outcome of one isolation run. All
// latencies are milliseconds.
type TenantServeMeasurement struct {
	// QuietSoloP50/P99: the quiet tenant's assign latency with the service
	// otherwise idle — the baseline.
	QuietSoloP50, QuietSoloP99 float64
	// QuietHotP50/P99: the same quiet-tenant queries while the hot tenant
	// runs HotClients concurrent ingest+assign loops.
	QuietHotP50, QuietHotP99 float64
	// P99Ratio is QuietHotP99 / QuietSoloP99 — the isolation headline
	// (1.0 = perfect isolation).
	P99Ratio float64
	// HotQPS and HotIngested report the interference load actually
	// generated: completed hot requests per second and points ingested.
	HotQPS      float64
	HotIngested int64
}

// RunServeTenants starts a multi-tenant service over loopback HTTP, seeds
// a quiet and a hot tenant from disjoint translates of ds, measures the
// quiet tenant's assign latency solo, then re-measures it while HotClients
// goroutines hammer the hot tenant with the rest of ds, and reports both
// percentiles plus the generated interference load. The service is drained
// and closed before returning.
func RunServeTenants(ds *metric.Dataset, spec TenantServeSpec) (TenantServeMeasurement, error) {
	shards := max(spec.Shards, 1)
	hotClients := spec.HotClients
	if hotClients <= 0 {
		hotClients = 4
	}
	batch := spec.Batch
	if batch <= 0 {
		batch = 256
	}
	quietAssigns := spec.QuietAssigns
	if quietAssigns <= 0 {
		quietAssigns = 200
	}
	hotRate := spec.HotPointsPerSec
	if hotRate <= 0 {
		hotRate = 50_000
	}

	// The experiment process doubles as server and client fleet, and its
	// live heap is a few MB — at the default GOGC that means a GC cycle
	// every couple of MB of HTTP request garbage (~10/s under load), whose
	// 1 P mark phases would dominate the quiet tenant's p99 on small hosts
	// and measure the collector, not the tenancy. Run the measurement at
	// the heap target a latency-sensitive serving deployment would use.
	oldGC := debug.SetGCPercent(400)
	defer debug.SetGCPercent(oldGC)

	n, err := startNode(server.Config{
		K: spec.K, Shards: shards, MaxBatch: batch, MaxTenants: 4, QueueDepth: 64,
	})
	if err != nil {
		return TenantServeMeasurement{}, err
	}
	defer n.close()

	// Disjoint regions per tenant: the quiet tenant's world is ds shifted
	// far away.
	seedN := min(batch, ds.N)
	quietPts, quietBodies, err := quietWorld(ds, seedN)
	if err != nil {
		return TenantServeMeasurement{}, err
	}
	quiet, hot := n.client("quiet"), n.client("hot")
	if err := quiet.warm(quietPts); err != nil {
		return TenantServeMeasurement{}, err
	}
	if err := hot.warm(rows(ds, 0, seedN)); err != nil {
		return TenantServeMeasurement{}, err
	}

	// Phase 1: the quiet tenant alone.
	solo, err := quietPhase(quiet, quietBodies, quietAssigns)
	if err != nil {
		return TenantServeMeasurement{}, err
	}

	// Phase 2: the hot tenant runs its sustained feed while the quiet
	// tenant repeats the identical sparse workload. Each hot client paces
	// itself to its share of HotPointsPerSec (one ingest batch per
	// interval plus, every 4th round, one assign against the live
	// snapshot), so the hot tenant's queue, shards and snapshot cache
	// churn continuously under a defined offered load. Isolation is
	// structural — per-tenant queues, workers and caches — and the fixed
	// rate is what lets the measurement show it instead of dissolving into
	// CPU-scheduling noise when the host is smaller than the load.
	chunk := (ds.N - seedN + hotClients - 1) / hotClients
	var wg sync.WaitGroup
	hotErr := make([]error, hotClients)
	var hotRequests atomic.Int64
	stop := make(chan struct{})
	start := time.Now()
	for c := 0; c < hotClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := n.client("hot")
			// Pre-marshal this client's ingest bodies once; the loop
			// re-feeds them (the summarizer discards covered points, so
			// re-ingestion is the steady-state regime, exactly what a
			// long-lived hot feed looks like). The periodic assign probe
			// uses a small 32-point body: a live feed ingests far more
			// than it queries, and the probe is there to keep the hot
			// tenant's snapshot path churning, not to benchmark it.
			lo := seedN + c*chunk
			hi := min(lo+chunk, ds.N)
			bodies, err := batchBodies(ds, lo, hi, batch)
			if err != nil {
				hotErr[c] = err
				return
			}
			probe, err := pointsBody(rows(ds, lo, min(lo+32, lo+batch, hi)))
			if err != nil {
				hotErr[c] = err
				return
			}
			// This client's share of the offered load, as a send interval,
			// phase-staggered across clients so the fleet offers a smooth
			// arrival stream instead of synchronized convoys (a convoy is
			// a property of the load generator, not of the service under
			// test).
			interval := time.Duration(float64(batch) / (float64(hotRate) / float64(hotClients)) * float64(time.Second))
			stagger := interval * time.Duration(c) / time.Duration(hotClients)
			select {
			case <-stop:
				return
			case <-time.After(stagger):
			}
			next := time.Now()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				code, err := cl.post("/v1/ingest", bodies[round%len(bodies)])
				if err == nil && code != http.StatusAccepted && code != http.StatusTooManyRequests {
					err = fmt.Errorf("hot ingest status %d", code)
				}
				if err != nil {
					hotErr[c] = err
					return
				}
				hotRequests.Add(1)
				if round%4 == 0 {
					code, err := cl.post("/v1/assign", probe)
					if err == nil && code != http.StatusOK {
						err = fmt.Errorf("hot assign status %d", code)
					}
					if err != nil {
						hotErr[c] = err
						return
					}
					hotRequests.Add(1)
				}
				next = next.Add(interval)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				} else {
					next = time.Now() // over capacity: don't accumulate debt
				}
			}
		}(c)
	}
	contended, err := quietPhase(quiet, quietBodies, quietAssigns)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return TenantServeMeasurement{}, err
	}
	for _, e := range hotErr {
		if e != nil {
			return TenantServeMeasurement{}, e
		}
	}

	m := TenantServeMeasurement{
		QuietSoloP50: percentile(solo, 0.50),
		QuietSoloP99: percentile(solo, 0.99),
		QuietHotP50:  percentile(contended, 0.50),
		QuietHotP99:  percentile(contended, 0.99),
		HotQPS:       float64(hotRequests.Load()) / elapsed,
	}
	if m.QuietSoloP99 > 0 {
		m.P99Ratio = m.QuietHotP99 / m.QuietSoloP99
	}
	// The hot tenant's ingested total, read from its per-tenant stats.
	if st, err := hot.stats(); err == nil {
		m.HotIngested = st.IngestedPoints
	}
	return m, nil
}

func init() {
	registry = append(registry, Experiment{
		ID:    "serve-tenants",
		Title: "Multi-tenant isolation: a quiet tenant's assign latency vs a hot neighbor",
		Paper: "Not in the paper — extension: independent shard-and-merge clusterings multiplexed over one server",
		Run: func(cfg RunConfig, w io.Writer) error {
			cfg = cfg.withDefaults()
			n := cfg.scaled(200_000)
			ds := genGau(25)(n, cfg.Seed)
			fmt.Fprintf(w, "GAU k'=25 n=%d, k=25, shards=4 per tenant, batch=256, 4 hot clients; quiet tenant latencies in ms\n", n)
			fmt.Fprintf(w, "%12s %10s %10s %10s %10s %10s %10s %14s\n",
				"hot-pts/s", "solo-p50", "solo-p99", "hot-p50", "hot-p99", "p99-ratio", "hot-QPS", "hot-ingested")
			for _, rate := range []int{25_000, 50_000, 100_000} {
				m, err := RunServeTenants(ds, TenantServeSpec{
					K: 25, Shards: 4, HotClients: 4, HotPointsPerSec: rate, QuietAssigns: 800,
				})
				if err != nil {
					return fmt.Errorf("hot-pts/s=%d: %w", rate, err)
				}
				fmt.Fprintf(w, "%12d %10.3f %10.3f %10.3f %10.3f %10.2f %10.0f %14d\n",
					rate, m.QuietSoloP50, m.QuietSoloP99, m.QuietHotP50, m.QuietHotP99,
					m.P99Ratio, m.HotQPS, m.HotIngested)
			}
			return nil
		},
	})
}
