package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"kcenter/internal/dataset"
	"kcenter/internal/metric"
)

// TestConcurrentIngestAssignSnapshot is the -race gate for the serving
// layer: concurrent producers POST ingest batches while query clients POST
// assigns and poll centers/stats, all against one live service. Beyond
// freedom from data races it checks snapshot isolation per response: the
// reported assignment count matches the query count and every reported
// center position is within the snapshot's own center count.
func TestConcurrentIngestAssignSnapshot(t *testing.T) {
	s := newTestService(t, Config{K: 10, Shards: 4, QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	n := 6000
	if testing.Short() {
		n = 1500
	}
	l := dataset.Gau(dataset.GauConfig{N: n, KPrime: 10, Seed: 77})

	const producers, clients = 3, 3
	var wg sync.WaitGroup

	// Producers: disjoint slices of the feed, batches of 50.
	chunk := n / producers
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lo, hi := p*chunk, (p+1)*chunk
			for b := lo; b < hi; b += 50 {
				be := b + 50
				if be > hi {
					be = hi
				}
				pts := make([][]float64, 0, be-b)
				for i := b; i < be; i++ {
					pts = append(pts, l.Points.At(i))
				}
				body, _ := json.Marshal(ingestRequest{Points: pts})
				resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("producer %d: ingest status %d", p, resp.StatusCode)
					return
				}
			}
		}(p)
	}

	// Query clients: assigns interleaved with centers and stats polls.
	// Early queries may race the first drained point; 409 is a legal
	// answer then, never after a 200 has been seen.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seenOK := false
			for i := 0; i < 40; i++ {
				q := [][]float64{l.Points.At((c*41 + i*13) % n), l.Points.At((c*17 + i*29) % n)}
				body, _ := json.Marshal(assignRequest{Points: q})
				resp, err := ts.Client().Post(ts.URL+"/v1/assign", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					seenOK = true
					var ar assignResponse
					if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
						t.Error(err)
					}
					resp.Body.Close()
					if len(ar.Assignments) != len(q) {
						t.Errorf("client %d: %d assignments for %d queries", c, len(ar.Assignments), len(q))
						return
					}
					for _, a := range ar.Assignments {
						if a.Center < 0 || a.Center >= ar.Snapshot.Centers {
							t.Errorf("client %d: center %d outside snapshot of %d centers",
								c, a.Center, ar.Snapshot.Centers)
							return
						}
					}
				case http.StatusConflict:
					resp.Body.Close()
					if seenOK {
						t.Errorf("client %d: 409 after a successful assign", c)
						return
					}
				default:
					resp.Body.Close()
					t.Errorf("client %d: assign status %d", c, resp.StatusCode)
					return
				}
				if i%8 == 0 {
					for _, path := range []string{"/v1/centers", "/v1/stats"} {
						resp, err := ts.Client().Get(ts.URL + path)
						if err != nil {
							t.Error(err)
							return
						}
						resp.Body.Close()
					}
				}
			}
		}(c)
	}

	wg.Wait()
	ts.Close()
	res, err := s.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != int64(producers*chunk) {
		t.Fatalf("final ingested %d, want %d", res.Ingested, producers*chunk)
	}
}

// TestConcurrentTenantLifecycle is the multi-tenant -race gate: concurrent
// workers create tenants lazily (racing on the same names), ingest and
// assign against them, poll the registry and per-tenant stats, and force
// checkpoints — all against one live service. Tenant isolation means none
// of this may share unsynchronized state across tenants, and racing
// creations of one name must converge on a single tenant.
func TestConcurrentTenantLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, Config{
		K: 6, Shards: 2, MaxTenants: 6, QueueDepth: 16,
		CheckpointPath:     dir + "/serve.ckpt",
		CheckpointInterval: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	n := 4000
	if testing.Short() {
		n = 1200
	}
	l := dataset.Gau(dataset.GauConfig{N: n, KPrime: 6, Seed: 31})
	// Deliberate name races, plus the implicit default tenant in the mix.
	names := []string{"t0", "t1", "t2", "t0", ""}

	var wg sync.WaitGroup
	for w, name := range names {
		wg.Add(1)
		go func(w int, name string) {
			defer wg.Done()
			lo, hi := w*(n/len(names)), (w+1)*(n/len(names))
			for b := lo; b < hi; b += 40 {
				be := b + 40
				if be > hi {
					be = hi
				}
				pts := make([][]float64, 0, be-b)
				for i := b; i < be; i++ {
					pts = append(pts, l.Points.At(i))
				}
				body, _ := json.Marshal(ingestRequest{Points: pts, Tenant: name})
				resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("worker %d: ingest to %s status %d", w, name, resp.StatusCode)
					return
				}
				// Interleave an assign against the same tenant; 409 is legal
				// until its first point drains into a shard.
				abody, _ := json.Marshal(assignRequest{Points: pts[:1], Tenant: name})
				aresp, err := ts.Client().Post(ts.URL+"/v1/assign", "application/json", bytes.NewReader(abody))
				if err != nil {
					t.Error(err)
					return
				}
				aresp.Body.Close()
				if aresp.StatusCode != http.StatusOK && aresp.StatusCode != http.StatusConflict {
					t.Errorf("worker %d: assign to %s status %d", w, name, aresp.StatusCode)
					return
				}
			}
		}(w, name)
	}
	// A registry poller and a checkpoint forcer race the workers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			for _, path := range []string{"/v1/tenants", "/v1/stats"} {
				resp, err := ts.Client().Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
			_ = s.CheckpointNow()
		}
	}()
	wg.Wait()

	var tl tenantsResponse
	if resp := tenantGet(t, ts, "/v1/tenants", "", &tl); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenants status %d", resp.StatusCode)
	}
	if len(tl.Tenants) != 4 { // default + t0 + t1 + t2, name races converged
		t.Fatalf("registry has %d tenants, want 4: %+v", len(tl.Tenants), tl.Tenants)
	}
	ts.Close()
	if _, err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAssignLinearizable is the linearizability suite (runs under the -race
// gate): query goroutines hammer /v1/assign while a producer keeps bumping
// the center-set version, and a poller records every center list the
// service publishes by version. Every assign response must be exactly the
// result of evaluating its points against the single center list named by
// its snapshot.version — same nearest index, bit-equal distance — proving
// responses are never computed from a mix of snapshots.
func TestAssignLinearizable(t *testing.T) {
	s := newTestService(t, Config{K: 12, Shards: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	n := 9000
	rounds := 60
	if testing.Short() {
		n, rounds = 3000, 20
	}
	feed := genPoints(n, 23)
	ingestAll(t, ts, s, feed[:600], 200) // seed so assigns succeed from the start

	// Poller: record the published center list per version. Center lists
	// are immutable per version, so first-seen wins and a version observed
	// twice must match.
	versions := sync.Map{} // uint64 -> [][]float64
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var cr centersResponse
			resp := getJSON(t, ts, "/v1/centers", &cr)
			if resp.StatusCode == http.StatusOK {
				versions.LoadOrStore(cr.Snapshot.Version, cr.Centers)
			}
		}
	}()

	// Producer: keep ingesting so CentersVersion advances during the run.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 600; lo < n; lo += 150 {
			hi := lo + 150
			if hi > n {
				hi = n
			}
			resp, body := postJSON(t, ts, "/v1/ingest", ingestRequest{Points: feed[lo:hi]})
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("ingest status %d: %s", resp.StatusCode, body)
				return
			}
		}
	}()

	// Query clients: concurrent assigns racing the producer.
	queries := genPoints(120, 29)
	verified := int64(0)
	var verifiedMu sync.Mutex
	seen := map[uint64]bool{}
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				pts := queries[(c*7+r)%100 : (c*7+r)%100+12]
				resp, body := postJSON(t, ts, "/v1/assign", assignRequest{Points: pts})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("assign status %d: %s", resp.StatusCode, body)
					return
				}
				var ar assignResponse
				if err := json.Unmarshal(body, &ar); err != nil {
					t.Errorf("assign reply: %v", err)
					return
				}
				if len(ar.Assignments) != len(pts) {
					t.Errorf("%d assignments for %d points", len(ar.Assignments), len(pts))
					return
				}
				v, ok := versions.Load(ar.Snapshot.Version)
				if !ok {
					continue // version never caught by the poller; cannot verify
				}
				centers := v.([][]float64)
				if len(centers) != ar.Snapshot.Centers {
					t.Errorf("version %d: snapshot meta says %d centers, /v1/centers published %d",
						ar.Snapshot.Version, ar.Snapshot.Centers, len(centers))
					return
				}
				for i, p := range pts {
					wc, wd := nearestBrute(centers, p)
					if ar.Assignments[i].Center != wc || ar.Assignments[i].Distance != wd {
						t.Errorf("version %d point %d: got (center %d, dist %v), want (center %d, dist %v) against that version's centers",
							ar.Snapshot.Version, i, ar.Assignments[i].Center, ar.Assignments[i].Distance, wc, wd)
						return
					}
				}
				verifiedMu.Lock()
				verified++
				seen[ar.Snapshot.Version] = true
				verifiedMu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()

	if verified == 0 {
		t.Fatal("no assign response could be verified against a published center list")
	}
	if len(seen) < 2 {
		t.Logf("only %d distinct snapshot version(s) verified (%d responses); ingest may have converged early", len(seen), verified)
	}
}

// nearestBrute recomputes an assignment against a published center list
// with the serving path's exact arithmetic: metric.NearestInRange over the
// centers (same accumulation order, lowest-index tie-break) and a final
// Sqrt. JSON round-trips float64 values exactly, so a correct response
// matches bit for bit.
func nearestBrute(centers [][]float64, p []float64) (int, float64) {
	ds, err := metric.FromPoints(centers)
	if err != nil {
		panic(err)
	}
	c, sq := metric.NearestInRange(ds, 0, ds.N, p)
	return c, math.Sqrt(sq)
}
