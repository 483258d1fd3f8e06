package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kcenter/internal/dataset"
	"kcenter/internal/metric"
)

// newTestService builds a Service with small limits and registers cleanup.
// Tests that Close themselves pass closeInTest = false.
func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !s.closed.Load() {
			if _, err := s.Close(context.Background()); err != nil {
				t.Errorf("cleanup Close: %v", err)
			}
		}
	})
	return s
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp
}

// ingestAll pushes points in batches and waits until the service reports
// them all ingested and the shards have absorbed every one (ingestion is
// asynchronous behind the queue and again behind the shard channels, so
// only then is the center set idle).
func ingestAll(t *testing.T, ts *httptest.Server, s *Service, pts [][]float64, batch int) {
	t.Helper()
	for lo := 0; lo < len(pts); lo += batch {
		hi := lo + batch
		if hi > len(pts) {
			hi = len(pts)
		}
		resp, body := postJSON(t, ts, "/v1/ingest", ingestRequest{Points: pts[lo:hi]})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.ingestedPoints.Load() < int64(len(pts)) || shardAbsorbed(s) < s.ingestedPoints.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d points (%d absorbed by shards) before timeout",
				s.ingestedPoints.Load(), len(pts), shardAbsorbed(s))
		}
		time.Sleep(time.Millisecond)
	}
}

// shardAbsorbed is the number of points the default tenant's shard
// summaries have processed.
func shardAbsorbed(s *Service) int64 {
	var n int64
	for _, sh := range s.sh.PerShardStats() {
		n += sh.Ingested
	}
	return n
}

func genPoints(n int, seed uint64) [][]float64 {
	l := dataset.Gau(dataset.GauConfig{N: n, KPrime: 5, Seed: seed})
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = append([]float64(nil), l.Points.At(i)...)
	}
	return pts
}

func TestIngestAssignCentersStats(t *testing.T) {
	s := newTestService(t, Config{K: 10, Shards: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pts := genPoints(3000, 41)
	ingestAll(t, ts, s, pts, 500)

	// Centers: ≤ k rows of the ingested dimension, with certified bounds.
	var cr centersResponse
	if resp := getJSON(t, ts, "/v1/centers", &cr); resp.StatusCode != http.StatusOK {
		t.Fatalf("centers status %d", resp.StatusCode)
	}
	if len(cr.Centers) == 0 || len(cr.Centers) > 10 {
		t.Fatalf("got %d centers, want 1..10", len(cr.Centers))
	}
	if cr.Snapshot.Ingested != 3000 {
		t.Fatalf("snapshot ingested %d, want 3000", cr.Snapshot.Ingested)
	}

	// Assign: every query point's reported distance must equal the true
	// distance to the reported center, and the center must be the nearest
	// of the snapshot's centers.
	queries := pts[:50]
	resp, body := postJSON(t, ts, "/v1/assign", assignRequest{Points: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assign status %d: %s", resp.StatusCode, body)
	}
	var ar assignResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Assignments) != len(queries) {
		t.Fatalf("%d assignments for %d queries", len(ar.Assignments), len(queries))
	}
	if ar.Snapshot.Version != cr.Snapshot.Version {
		t.Fatalf("assign snapshot version %d != centers version %d (idle stream)",
			ar.Snapshot.Version, cr.Snapshot.Version)
	}
	cds, err := metric.FromPoints(cr.Centers)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range ar.Assignments {
		wantC, wantSq := metric.NearestInRange(cds, 0, cds.N, queries[i])
		if a.Center != wantC {
			t.Fatalf("query %d assigned to %d, want %d", i, a.Center, wantC)
		}
		if got, want := a.Distance, math.Sqrt(wantSq); math.Abs(got-want) > 1e-12*(1+want) {
			t.Fatalf("query %d distance %v, want %v", i, got, want)
		}
		if a.Distance > ar.Snapshot.Radius {
			t.Fatalf("ingested query %d at distance %v beyond the certified radius %v",
				i, a.Distance, ar.Snapshot.Radius)
		}
	}

	// Stats: counters and per-shard state.
	var st statsResponse
	if resp := getJSON(t, ts, "/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if st.K != 10 || st.Shards != 4 || st.Dim != 2 {
		t.Fatalf("stats identity k=%d shards=%d dim=%d", st.K, st.Shards, st.Dim)
	}
	if st.IngestedPoints != 3000 || st.AcceptedPoints != 3000 {
		t.Fatalf("stats points ingested=%d accepted=%d, want 3000", st.IngestedPoints, st.AcceptedPoints)
	}
	if st.AssignPoints != 50 || st.AssignRequests != 1 {
		t.Fatalf("stats assign points=%d requests=%d, want 50/1", st.AssignPoints, st.AssignRequests)
	}
	if st.DistEvals <= 0 {
		t.Fatal("stats dist_evals not counted")
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("per-shard stats for %d shards, want 4", len(st.PerShard))
	}
	// Shard counters are read live; a just-pushed point may still sit in a
	// shard channel for an instant, so poll to the full sum.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var shardTotal int64
		for _, sh := range st.PerShard {
			shardTotal += sh.Ingested
		}
		if shardTotal == 3000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard ingested sum %d, want 3000", shardTotal)
		}
		time.Sleep(time.Millisecond)
		getJSON(t, ts, "/v1/stats", &st)
	}
}

// TestSnapshotCacheReusedWhileCentersUnchanged: at one snapshot version
// every assign answers from the same cached snapshot and its one
// nearest-center index, so the first assign builds the snapshot once and
// the later ones build nothing. It runs at K = 5 and at K = 50, where the
// index is the sorted sweep that was once rebuilt per request.
func TestSnapshotCacheReusedWhileCentersUnchanged(t *testing.T) {
	for _, k := range []int{5, 50} {
		testSnapshotCacheReused(t, k)
	}
}

func testSnapshotCacheReused(t *testing.T, k int) {
	s := newTestService(t, Config{K: k, Shards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ingestAll(t, ts, s, genPoints(2000, 42), 400)
	// ingestAll returns once every point is on its way to a shard; the
	// shards must also have summarized them, or the centers can still move.
	waitFor(t, "shards drained", func() bool {
		var n int64
		for _, st := range s.sh.PerShardStats() {
			n += st.Ingested
		}
		return n == 2000
	})

	before := s.snapshotBuilds.Load()
	var first assignResponse
	resp, body := postJSON(t, ts, "/v1/assign", assignRequest{Points: [][]float64{{1, 2}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assign status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	builds := s.snapshotBuilds.Load()
	if builds != before+1 {
		t.Fatalf("K=%d: first assign built %d snapshots, want 1", k, builds-before)
	}
	index := s.snap.Load().index
	// With no ingestion in flight the centers cannot change: repeated
	// queries must reuse the cached snapshot (same version, no rebuilds)
	// and its index.
	for i := 0; i < 5; i++ {
		var again assignResponse
		_, body := postJSON(t, ts, "/v1/assign", assignRequest{Points: [][]float64{{3, 4}}})
		if err := json.Unmarshal(body, &again); err != nil {
			t.Fatal(err)
		}
		if again.Snapshot.Version != first.Snapshot.Version {
			t.Fatalf("K=%d: idle snapshot version moved %d -> %d", k, first.Snapshot.Version, again.Snapshot.Version)
		}
		if got := s.snap.Load().index; got != index {
			t.Fatalf("K=%d: assign %d answered through another index", k, i+2)
		}
	}
	if got := s.snapshotBuilds.Load(); got != builds {
		t.Fatalf("K=%d: idle queries rebuilt the snapshot %d times", k, got-builds)
	}
}

// TestAssignAllocatesNoIndex: /v1/assign answers through the index its
// cached snapshot holds, and builds none per request. At dim 2, k = 50 the
// snapshot's index is the sorted sweep, whose build allocates several
// slices; at k = 8 it is the plain scan, whose build is one small
// allocation. So a 256-point assign through the handler allocates about as
// often at k = 50 as at k = 8, while a handler that rebuilt the index per
// request would add the sweep's build, 8 allocations more, at k = 50. The
// count is process-wide, so the bound leaves 2 for the service's own
// goroutines, and each service is closed once measured.
func TestAssignAllocatesNoIndex(t *testing.T) {
	queries := genPoints(256, 46)
	body, err := json.Marshal(assignRequest{Points: queries})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(k int) float64 {
		s := newTestService(t, Config{K: k, Shards: 2})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		ingestAll(t, ts, s, genPoints(2000, 45), 400)
		waitFor(t, "shards drained", func() bool { return shardAbsorbed(s) == 2000 })
		h := s.Handler()
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("k=%d: assign status %d: %s", k, rec.Code, rec.Body)
			}
		}
		serve() // builds and caches the snapshot
		if got := s.snap.Load().res.Centers.N; got != k {
			t.Fatalf("k=%d: snapshot holds %d centers", k, got)
		}
		n := testing.AllocsPerRun(200, serve)
		if _, err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		return n
	}
	plain, sweep := allocs(8), allocs(50)
	if sweep > plain+2 {
		t.Fatalf("an assign at k = 50 (sweep) allocates %v times, at k = 8 (plain scan) %v: the handler builds an index per request", sweep, plain)
	}
}

// TestStatsReadsDoNotBuildSnapshots: /v1/stats reports the cached query
// snapshot as it stands, so reads after new ingest leave snapshot_builds
// alone and the next assign builds exactly one.
func TestStatsReadsDoNotBuildSnapshots(t *testing.T) {
	s := newTestService(t, Config{K: 5, Shards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ingestAll(t, ts, s, genPoints(1000, 43), 250)
	waitFor(t, "shards drained", func() bool { return shardAbsorbed(s) == 1000 })
	var first assignResponse
	_, body := postJSON(t, ts, "/v1/assign", assignRequest{Points: [][]float64{{1, 2}}})
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	builds := s.snapshotBuilds.Load()
	if builds == 0 {
		t.Fatal("assign built no snapshot")
	}

	// Points far outside the first cloud must move the center set.
	far := genPoints(500, 44)
	for _, p := range far {
		p[0] += 1e6
	}
	if resp, body := postJSON(t, ts, "/v1/ingest", ingestRequest{Points: far}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	waitFor(t, "shards drained", func() bool { return shardAbsorbed(s) == 1500 })
	if s.sh.MergedVersion() == first.Snapshot.Version {
		t.Fatal("far ingest left the center set unchanged")
	}

	for i := 0; i < 2; i++ {
		var st statsResponse
		getJSON(t, ts, "/v1/stats", &st)
		if st.SnapshotBuilds != builds {
			t.Fatalf("stats read %d: snapshot_builds %d, want %d", i, st.SnapshotBuilds, builds)
		}
		if st.Snapshot == nil || st.Snapshot.Version != first.Snapshot.Version {
			t.Fatalf("stats read %d: snapshot %+v, want the cached version %d", i, st.Snapshot, first.Snapshot.Version)
		}
	}
	if got := s.snapshotBuilds.Load(); got != builds {
		t.Fatalf("stats reads built %d snapshots", got-builds)
	}

	var next assignResponse
	_, body = postJSON(t, ts, "/v1/assign", assignRequest{Points: [][]float64{{1, 2}}})
	if err := json.Unmarshal(body, &next); err != nil {
		t.Fatal(err)
	}
	if got := s.snapshotBuilds.Load(); got != builds+1 {
		t.Fatalf("assign after new ingest built %d snapshots, want 1", got-builds)
	}
	if next.Snapshot.Version != s.sh.MergedVersion() {
		t.Fatalf("assign answered from version %d, want %d", next.Snapshot.Version, s.sh.MergedVersion())
	}
}

func TestMalformedAndInvalidRequests(t *testing.T) {
	s := newTestService(t, Config{K: 3, MaxBatch: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) *http.Response {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Malformed JSON.
	if resp := post("/v1/ingest", "{nope"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ingest: status %d, want 400", resp.StatusCode)
	}
	// Empty batch.
	if resp := post("/v1/ingest", `{"points": []}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	// Empty point.
	if resp := post("/v1/ingest", `{"points": [[]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty point: status %d, want 400", resp.StatusCode)
	}
	// Non-finite coordinate (JSON has no NaN literal; big-number overflow
	// arrives as +Inf via some encoders — send it malformed instead).
	if resp := post("/v1/ingest", `{"points": [[1, 1e999]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing coordinate: status %d, want 400", resp.StatusCode)
	}
	// Mixed dimensions inside one batch.
	if resp := post("/v1/ingest", `{"points": [[1,2],[1,2,3]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed dims: status %d, want 400", resp.StatusCode)
	}
	// Oversized batch (MaxBatch = 8).
	big := ingestRequest{Points: make([][]float64, 9)}
	for i := range big.Points {
		big.Points[i] = []float64{float64(i), 0}
	}
	if resp, _ := postJSON(t, ts, "/v1/ingest", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d, want 413", resp.StatusCode)
	}
	// Oversized body: rejected by the byte cap mid-decode, without
	// materializing the points (MaxBatch=8 caps the body around 1 MiB).
	huge := bytes.NewBufferString(`{"points": [[`)
	for huge.Len() < 2<<20 {
		huge.WriteString("1.0,")
	}
	huge.WriteString("1.0]]}")
	if resp := post("/v1/ingest", huge.String()); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// Assign before any ingest: 409.
	if resp := post("/v1/assign", `{"points": [[1,2]]}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("assign before ingest: status %d, want 409", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/v1/centers", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("centers before ingest: status %d, want 409", resp.StatusCode)
	}
	// Stats works on an empty service (no per-shard block yet).
	var st statsResponse
	if resp := getJSON(t, ts, "/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("empty stats: status %d, want 200", resp.StatusCode)
	}
	if st.PerShard != nil {
		t.Fatalf("empty stats has per-shard block: %+v", st.PerShard)
	}

	// Seed the dimension, then mismatch across requests.
	if resp := post("/v1/ingest", `{"points": [[1,2]]}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed ingest: status %d", resp.StatusCode)
	}
	if resp := post("/v1/ingest", `{"points": [[1,2,3]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cross-batch dim mismatch: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/v1/assign", `{"points": [[1,2,3]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("assign dim mismatch: status %d, want 400", resp.StatusCode)
	}

	// Wrong methods.
	if resp := getJSON(t, ts, "/v1/ingest", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest: status %d, want 405", resp.StatusCode)
	}
	if resp := post("/v1/stats", "{}"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST stats: status %d, want 405", resp.StatusCode)
	}
	// Unknown route: 404 with the JSON error contract, not text/plain.
	var e404 errorResponse
	if resp := getJSON(t, ts, "/v1/nope", &e404); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: status %d, want 404", resp.StatusCode)
	}
	if e404.Error == "" {
		t.Fatal("unknown route: error body not JSON")
	}
}

func TestCloseDrainsAndFlushes(t *testing.T) {
	s, err := New(Config{K: 5, Shards: 2, QueueDepth: 128})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	pts := genPoints(1000, 43)
	for lo := 0; lo < len(pts); lo += 100 {
		resp, body := postJSON(t, ts, "/v1/ingest", ingestRequest{Points: pts[lo : lo+100]})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
		}
	}
	ts.Close() // handlers done; queued batches may still be draining

	res, err := s.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != 1000 {
		t.Fatalf("final result ingested %d, want all 1000 accepted points", res.Ingested)
	}
	if res.Centers.N == 0 || res.Centers.N > 5 {
		t.Fatalf("final centers %d, want 1..5", res.Centers.N)
	}

	// Closed service rejects further batches and a second Close.
	if err := s.enqueue(context.Background(), slabBatch([][]float64{{1, 2}})); err == nil {
		t.Fatal("enqueue after Close should fail")
	}
	if _, err := s.Close(context.Background()); err == nil {
		t.Fatal("second Close should fail")
	}
}

func TestIngestBackpressure(t *testing.T) {
	// Tiny queue and a slow drain: saturate the queue, then check that an
	// ingest with an already-cancelled context fails with 503 instead of
	// blocking forever.
	s := newTestService(t, Config{K: 2, QueueDepth: 1, Buffer: 1})
	// Fill: the worker may be mid-batch, so push until a cancelled-context
	// enqueue reports the queue full.
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = []float64{float64(i % 7), float64(i % 11)}
	}
	// One batch under a live context first, so the stream is non-empty no
	// matter how quickly the backpressure path fires below. Every enqueue
	// gets its own batch: a queued batch belongs to the worker, which
	// recycles it into the process-wide pool, so re-sending one would pool
	// it twice and hand it to two later requests at once.
	if err := s.enqueue(context.Background(), slabBatch(rows)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := s.enqueue(ctx, slabBatch(rows)); err != nil {
			if s.closed.Load() {
				t.Fatal("service closed unexpectedly")
			}
			break // the backpressure path fired
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
}

func TestServeHTTPConcurrentSmoke(t *testing.T) {
	// Belt-and-braces sequential smoke for the full request matrix; the
	// real concurrency checks live in race_test.go.
	s := newTestService(t, Config{K: 8, Shards: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ingestAll(t, ts, s, genPoints(500, 44), 125)
	for i := 0; i < 3; i++ {
		if resp := getJSON(t, ts, "/v1/centers", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("centers %d", resp.StatusCode)
		}
		if resp := getJSON(t, ts, "/v1/stats", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("stats %d", resp.StatusCode)
		}
		resp, _ := postJSON(t, ts, "/v1/assign", assignRequest{Points: [][]float64{{float64(i), 1}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assign %d", resp.StatusCode)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{K: 0}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := New(Config{K: -3}); err == nil {
		t.Fatal("negative k should fail")
	}
	s, err := New(Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Shards != 1 || s.cfg.MaxBatch != 4096 || s.cfg.QueueDepth != 64 {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
	if _, err := s.Close(context.Background()); err == nil {
		t.Fatal("Close on an empty service should propagate the empty-stream error")
	}
}

func ExampleService() {
	s, _ := New(Config{K: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := bytes.NewBufferString(`{"points": [[0,0],[10,10]]}`)
	resp, _ := http.Post(ts.URL+"/v1/ingest", "application/json", body)
	fmt.Println(resp.StatusCode)
	resp.Body.Close()
	// Output: 202
}
