// Tests for the /metrics exposition, the /v1/stats latency summaries, the
// pprof gating and the end-to-end trace accounting. Telemetry is a per-Service
// switch (Config.Telemetry), so tests arm it only on the Service under test.

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"kcenter/internal/dataset"
	"kcenter/internal/obs"
)

func getBody(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, b.String()
}

// defaultTenantMetrics digs out the default tenant's metric set (tests run
// in-package, so reaching into the registry replaces a scrape parser).
func defaultTenantMetrics(t *testing.T, s *Service) *obs.TenantMetrics {
	t.Helper()
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	tn := s.tenants[DefaultTenant]
	if tn == nil || tn.metrics == nil {
		t.Fatal("default tenant metrics missing")
	}
	return tn.metrics
}

// waitRouteCount polls until the route's end-to-end histogram reaches n —
// traces finish in a defer after the response is written, so a client that
// just got its reply may race the observation.
func waitRouteCount(t *testing.T, m *obs.TenantMetrics, ro obs.Route, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Routes[ro].Total.Count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("route %s count %d, want %d", ro, m.Routes[ro].Total.Count(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMetricsExposition scrapes an armed service after real traffic and
// checks the Prometheus text format end to end: content type, per-tenant and
// aggregate histogram families, cumulative bucket monotonicity, and the
// bucket/count invariant.
func TestMetricsExposition(t *testing.T) {
	s := newTestService(t, Config{K: 5, Shards: 2, Telemetry: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pts := genPoints(200, 7)
	ingestAll(t, ts, s, pts, 50)
	if resp, body := postJSON(t, ts, "/v1/assign", assignRequest{Points: pts[:10]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("assign status %d: %s", resp.StatusCode, body)
	}
	m := defaultTenantMetrics(t, s)
	waitRouteCount(t, m, obs.RouteIngest, 4)
	waitRouteCount(t, m, obs.RouteAssign, 1)

	resp, body := getBody(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type %q, want %q", ct, obs.PromContentType)
	}

	// Both granularities must expose the request histograms, and the gauges
	// and counters the scrape promises must be present.
	for _, want := range []string{
		"# TYPE kcenter_request_duration_seconds histogram",
		"# TYPE kcenter_tenant_request_duration_seconds histogram",
		`kcenter_tenant_request_duration_seconds_count{tenant="default",route="ingest"} 4`,
		`kcenter_request_duration_seconds_count{route="ingest"} 4`,
		`kcenter_request_duration_seconds_count{route="assign"} 1`,
		`kcenter_tenant_stage_duration_seconds_count{tenant="default",route="assign",stage="kernel"} 1`,
		`kcenter_stage_duration_seconds_count{route="ingest",stage="queue_wait"} 4`,
		`kcenter_tenant_ingested_points_total{tenant="default"} 200`,
		"kcenter_telemetry_armed 1",
		"kcenter_up 1",
		"# TYPE kcenter_checkpoint_write_duration_seconds histogram",
		"# TYPE kcenter_shard_dwell_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("exposition:\n%s", body)
	}

	// Histogram invariants on the aggregate ingest series: cumulative bucket
	// counts never decrease, the +Inf bucket equals _count, and every le
	// bound parses.
	bucketRe := regexp.MustCompile(`^kcenter_request_duration_seconds_bucket\{route="ingest",le="([^"]+)"\} (\d+)$`)
	prev := int64(-1)
	var infCount int64
	buckets := 0
	for _, line := range strings.Split(body, "\n") {
		mm := bucketRe.FindStringSubmatch(line)
		if mm == nil {
			continue
		}
		buckets++
		n, err := strconv.ParseInt(mm[2], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("cumulative bucket decreased at %q (prev %d)", line, prev)
		}
		prev = n
		if mm[1] == "+Inf" {
			infCount = n
		} else if _, err := strconv.ParseFloat(mm[1], 64); err != nil {
			t.Fatalf("unparsable le bound in %q: %v", line, err)
		}
	}
	if buckets != obs.NumBuckets {
		t.Fatalf("got %d ingest buckets, want %d", buckets, obs.NumBuckets)
	}
	if infCount != 4 {
		t.Fatalf("+Inf bucket %d, want 4 (the _count)", infCount)
	}

	// A histogram family's le="+Inf" must equal its _count everywhere.
	if strings.Count(body, `le="+Inf"`) == 0 {
		t.Fatal("no +Inf buckets anywhere")
	}

	// Method discipline matches the /v1 handlers.
	preq, err := http.NewRequest(http.MethodPost, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp, err := ts.Client().Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status %d, want 405", presp.StatusCode)
	}
}

// TestMetricsDisarmed: with telemetry off the endpoint still serves (counters
// remain live) but the armed gauge reads 0 and no request latency was
// recorded.
func TestMetricsDisarmed(t *testing.T) {
	s := newTestService(t, Config{K: 4, Shards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pts := genPoints(100, 11)
	ingestAll(t, ts, s, pts, 100)

	resp, body := getBody(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if !strings.Contains(body, "kcenter_telemetry_armed 0") {
		t.Fatalf("armed gauge not 0:\n%s", body)
	}
	if !strings.Contains(body, `kcenter_tenant_ingested_points_total{tenant="default"} 100`) {
		t.Fatalf("counters must stay live disarmed:\n%s", body)
	}
	if !strings.Contains(body, `kcenter_request_duration_seconds_count{route="ingest"} 0`) {
		t.Fatalf("disarmed request histogram should be empty:\n%s", body)
	}
}

// TestStatsLatencyFields: /v1/stats grows p50/p99/max summaries per route
// when telemetry has recorded, and omits the fields entirely when disarmed so
// pre-telemetry replies stay byte-identical.
func TestStatsLatencyFields(t *testing.T) {
	s := newTestService(t, Config{K: 5, Shards: 2, Telemetry: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pts := genPoints(300, 5)
	ingestAll(t, ts, s, pts, 100)
	if resp, body := postJSON(t, ts, "/v1/assign", assignRequest{Points: pts[:20]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("assign status %d: %s", resp.StatusCode, body)
	}
	m := defaultTenantMetrics(t, s)
	waitRouteCount(t, m, obs.RouteIngest, 3)
	waitRouteCount(t, m, obs.RouteAssign, 1)

	var st statsResponse
	if resp := getJSON(t, ts, "/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if st.IngestLatency == nil || st.AssignLatency == nil {
		t.Fatalf("latency summaries missing: %+v", st)
	}
	if st.IngestLatency.Count != 3 || st.AssignLatency.Count != 1 {
		t.Fatalf("counts ingest=%d assign=%d, want 3 and 1", st.IngestLatency.Count, st.AssignLatency.Count)
	}
	for _, l := range []*routeLatency{st.IngestLatency, st.AssignLatency} {
		if l.P50Ms <= 0 || l.P50Ms > l.P99Ms || l.P99Ms > l.MaxMs {
			t.Fatalf("quantile ordering violated: %+v", l)
		}
	}

	// Disarmed service: the raw JSON must not mention the fields at all.
	s2 := newTestService(t, Config{K: 4, Shards: 2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	ingestAll(t, ts2, s2, genPoints(50, 9), 50)
	_, raw := getBody(t, ts2, "/v1/stats")
	if strings.Contains(raw, "ingest_latency") || strings.Contains(raw, "assign_latency") {
		t.Fatalf("disarmed stats leaked latency fields: %s", raw)
	}
}

// TestTraceStageAccounting is the end-to-end accounting check: for the
// assign route every stage is marked inside the trace, so the sum of the
// stage histograms' totals can never exceed the end-to-end total, and the
// end-to-end total can never exceed the wall time the test observed around
// the requests.
func TestTraceStageAccounting(t *testing.T) {
	s := newTestService(t, Config{K: 5, Shards: 2, Telemetry: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pts := genPoints(500, 3)
	ingestAll(t, ts, s, pts, 500)

	start := time.Now()
	const n = 5
	for i := 0; i < n; i++ {
		if resp, body := postJSON(t, ts, "/v1/assign", assignRequest{Points: pts[:50]}); resp.StatusCode != http.StatusOK {
			t.Fatalf("assign status %d: %s", resp.StatusCode, body)
		}
	}
	m := defaultTenantMetrics(t, s)
	waitRouteCount(t, m, obs.RouteAssign, n)
	wall := time.Since(start)

	total := m.Routes[obs.RouteAssign].Total.Snapshot()
	if total.Count != n {
		t.Fatalf("total count %d, want %d", total.Count, n)
	}
	var stageSum int64
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		snap := m.Routes[obs.RouteAssign].Stages[st].Snapshot()
		stageSum += snap.SumNanos
	}
	if stageSum == 0 {
		t.Fatal("no stage durations recorded")
	}
	if stageSum > total.SumNanos {
		t.Fatalf("stage sum %dns exceeds end-to-end sum %dns", stageSum, total.SumNanos)
	}
	if total.SumNanos > int64(wall) {
		t.Fatalf("traced total %dns exceeds wall time %dns", total.SumNanos, int64(wall))
	}
	// The stages a query actually runs must all have fired.
	for _, st := range []obs.Stage{obs.StageDecode, obs.StageSnapshot, obs.StageKernel, obs.StageEncode} {
		if c := m.Routes[obs.RouteAssign].Stages[st].Count(); c != n {
			t.Fatalf("stage %s count %d, want %d", st, c, n)
		}
	}
}

// TestPprofGating: the profiling endpoints exist exactly when Config.Pprof
// asks for them.
func TestPprofGating(t *testing.T) {
	s := newTestService(t, Config{K: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ingestAll(t, ts, s, genPoints(10, 1), 10) // Close errors on a never-fed stream
	resp, _ := getBody(t, ts, "/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ungated pprof status %d, want 404", resp.StatusCode)
	}

	s2 := newTestService(t, Config{K: 3, Pprof: true})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	ingestAll(t, ts2, s2, genPoints(10, 2), 10)
	resp2, body := getBody(t, ts2, "/debug/pprof/")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("gated pprof status %d: %s", resp2.StatusCode, body)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index unexpected body: %s", body)
	}
}

// TestTelemetryOverhead drives the identical ingest+assign workload (GAU
// k'=25, k=25, 4 shards, one 256-point assign after every 256-point ingest)
// through a disarmed and an armed Service, interleaved request by request
// so host noise lands on both, and fails only when a route's armed median
// both doubled and grew by more than 0.25 ms. Each side gives each route 32
// samples after a warm-up batch.
func TestTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("latency gate; -short runs (the race gate among them) skip it")
	}
	const batch, rounds = 256, 32
	ds := dataset.Gau(dataset.GauConfig{N: (rounds + 1) * batch, KPrime: 25, Seed: 11}).Points
	bodies := make([][]byte, rounds+1)
	for i := range bodies {
		pts := make([][]float64, batch)
		for j := range pts {
			pts[j] = ds.At(i*batch + j)
		}
		b, err := json.Marshal(ingestRequest{Points: pts})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	post := func(ts *httptest.Server, path string, body []byte) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	type side struct {
		name           string
		ts             *httptest.Server
		ingest, assign []float64 // latencies in ms
	}
	var sides []*side
	for i, name := range []string{"disarmed", "armed"} {
		s := newTestService(t, Config{K: 25, Shards: 4, MaxBatch: batch, Telemetry: i == 1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		// Seed one batch and poll past the cold 409 so every sample
		// measures served traffic.
		if code := post(ts, "/v1/ingest", bodies[0]); code != http.StatusAccepted {
			t.Fatalf("seed ingest status %d", code)
		}
		waitFor(t, "first snapshot", func() bool { return post(ts, "/v1/assign", bodies[0]) == http.StatusOK })
		sides = append(sides, &side{name: name, ts: ts})
	}
	for _, body := range bodies[1:] {
		for _, sd := range sides {
			t0 := time.Now()
			if code := post(sd.ts, "/v1/ingest", body); code != http.StatusAccepted {
				t.Fatalf("%s ingest status %d", sd.name, code)
			}
			sd.ingest = append(sd.ingest, msSince(t0))
			t0 = time.Now()
			if code := post(sd.ts, "/v1/assign", body); code != http.StatusOK {
				t.Fatalf("%s assign status %d", sd.name, code)
			}
			sd.assign = append(sd.assign, msSince(t0))
		}
	}

	off, on := sides[0], sides[1]
	for _, c := range []struct {
		route   string
		off, on []float64
	}{
		{"ingest", off.ingest, on.ingest},
		{"assign", off.assign, on.assign},
	} {
		p50off, p50on := median(c.off), median(c.on)
		t.Logf("%s p50: disarmed %.3f ms, armed %.3f ms (%d samples each)", c.route, p50off, p50on, len(c.on))
		if p50on > 2*p50off && p50on-p50off > 0.25 {
			t.Errorf("telemetry overhead on %s p50: %.3f ms armed vs %.3f ms disarmed", c.route, p50on, p50off)
		}
	}
}

// msSince is the time since t0 in milliseconds.
func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1e3
}

// median is the nearest-rank p50 of xs, which it sorts in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[(len(xs)+1)/2-1]
}
