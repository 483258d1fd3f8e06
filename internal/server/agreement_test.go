// Agreement between the read surfaces: after a scripted sequence that moves
// every per-tenant counter, each counter that /v1/stats and /metrics both
// expose reads the same value per tenant, and the tenant status counts of
// /metrics, /v1/healthz and the /v1/stats aggregate agree.
//
// The pairing is derived from names alone — the /metrics family
// kcenter_tenant_<key>[_total] is the /v1/stats key <key> — so the test does
// not read the counter table it checks.

package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"kcenter/internal/fault"
)

// metricsOnlyFamilies are the kcenter_tenant_* sample families /v1/stats
// does not report.
var metricsOnlyFamilies = map[string]bool{
	"kcenter_tenant_burst_drains_total":   true,
	"kcenter_tenant_burst_messages_total": true,
}

// scrapeTenantSamples parses a /metrics body into family → tenant → value
// for the non-histogram samples whose only label is tenant, and family →
// type.
func scrapeTenantSamples(t *testing.T, body string) (map[string]map[string]float64, map[string]string) {
	t.Helper()
	samples := map[string]map[string]float64{}
	types := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(fam, " ")
			types[name] = typ
			continue
		}
		name, rest, ok := strings.Cut(line, `{tenant="`)
		if !ok || line[0] == '#' || types[name] != "counter" && types[name] != "gauge" {
			continue // not a tenant sample, or a histogram series
		}
		tenant, value, ok := strings.Cut(rest, `"} `)
		if !ok || strings.Contains(tenant, `"`) {
			continue // more labels than tenant
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		if samples[name] == nil {
			samples[name] = map[string]float64{}
		}
		samples[name][tenant] = v
	}
	return samples, types
}

func TestStatsAndMetricsAgree(t *testing.T) {
	faults := new(fault.Set)
	dir := t.TempDir()
	// A corrupt checkpoint makes "broken" a failed tenant.
	if err := os.MkdirAll(filepath.Join(dir, "state.ckpt.d"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "state.ckpt.d", "broken.ckpt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{
		K: 4, Shards: 2, MaxTenants: 8, Faults: faults,
		QueueDepth: 1, ShedAfter: 100 * time.Millisecond,
		CheckpointPath: filepath.Join(dir, "state.ckpt"), CheckpointInterval: time.Hour,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	arm := func(name string, r fault.Rule) {
		t.Helper()
		if err := faults.Arm(map[string]fault.Rule{name: r}); err != nil {
			t.Fatal(err)
		}
	}

	// Ingest and assign.
	goldenIngest(t, ts, "", nil, genPoints(120, 3), 40)
	goldenIngest(t, ts, "alpha", nil, genPoints(80, 5), 40)
	goldenIngest(t, ts, "beta", nil, genPoints(60, 7), 30)
	settle(t, s)
	goldenAssign(t, ts, "", genPoints(8, 4))
	goldenAssign(t, ts, "alpha", genPoints(5, 6))

	// A 429 shed at the watermark: alpha's worker is slowed, its one-batch
	// queue fills, and the next batch waits out ShedAfter.
	arm(fault.ServerIngest, fault.Rule{Mode: fault.ModeDelay, Delay: 500 * time.Millisecond})
	batch := ingestRequest{Points: genPoints(10, 8)}
	shed := false
	for i := 0; i < 10 && !shed; i++ {
		resp, body := tenantPost(t, ts, "/v1/ingest", "alpha", nil, batch)
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			shed = true
		case http.StatusAccepted:
		default:
			t.Fatalf("ingest under delay: %d %s", resp.StatusCode, body)
		}
	}
	faults.Disarm()
	if !shed {
		t.Fatal("no batch was shed at the watermark")
	}
	settle(t, s)

	// A checkpoint error, then a checkpoint write.
	arm(fault.CheckpointSync, fault.Rule{Mode: fault.ModeError})
	if err := s.CheckpointNow(); err == nil {
		t.Fatal("CheckpointNow under an fsync fault succeeded")
	}
	faults.Disarm()
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	// A degraded tenant's drops: beta's next batch panics its worker.
	arm(fault.ServerIngest, fault.Rule{Mode: fault.ModePanic})
	goldenIngest(t, ts, "beta", nil, genPoints(30, 9), 30)
	bt, _ := s.lookup("beta")
	waitFor(t, "beta degraded", func() bool { return bt.checkDegraded() != nil })
	faults.Disarm()
	settle(t, s)

	// Per-tenant /v1/stats, for every tenant that answers queries. A stats
	// read builds no query snapshot, so one round already agrees with the
	// scrape below.
	var tl tenantsResponse
	getJSON(t, ts, "/v1/tenants", &tl)
	stats := map[string]map[string]any{}
	present := map[string]bool{}
	for _, ti := range tl.Tenants {
		if ti.Status == "failed" {
			continue
		}
		_, body := getBody(t, ts, "/v1/stats?tenant="+ti.Name)
		var m map[string]any
		dec := json.NewDecoder(strings.NewReader(body))
		dec.UseNumber()
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		stats[ti.Name] = m
		for k := range m {
			present[k] = true
		}
	}
	if len(stats) != 3 {
		t.Fatalf("stats for %d tenants, want 3", len(stats))
	}

	resp, body := getBody(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK || strings.Contains(body, `"error"`) {
		t.Fatalf("/metrics: %d, body ends %q", resp.StatusCode, body[max(0, len(body)-200):])
	}
	samples, types := scrapeTenantSamples(t, body)
	compared := 0
	for fam, byTenant := range samples {
		if !strings.HasPrefix(fam, "kcenter_tenant_") || metricsOnlyFamilies[fam] {
			continue
		}
		key := strings.TrimSuffix(strings.TrimPrefix(fam, "kcenter_tenant_"), "_total")
		if !present[key] {
			t.Errorf("/metrics family %s has no /v1/stats key %q (and is not listed as metrics-only)", fam, key)
			continue
		}
		compared++
		moved := false
		for tenant, m := range stats {
			want := 0.0 // an omitempty key absent from a reply reads 0
			if n, ok := m[key].(json.Number); ok {
				var err error
				if want, err = n.Float64(); err != nil {
					t.Fatal(err)
				}
			}
			got, ok := byTenant[tenant]
			if !ok {
				t.Errorf("%s has no sample for tenant %q", fam, tenant)
			}
			if got != want {
				t.Errorf("tenant %q: /metrics %s = %v, /v1/stats %s = %v", tenant, fam, got, key, want)
			}
			moved = moved || got != 0
		}
		if types[fam] == "counter" && !moved {
			t.Errorf("the scripted sequence never moved %s", fam)
		}
	}
	if compared < 9 {
		t.Fatalf("compared %d counters, want at least 9", compared)
	}

	// Status counts: /metrics kcenter_tenants{status}, /v1/healthz and the
	// /v1/stats aggregate.
	statusCount := func(status string) int {
		prefix := `kcenter_tenants{status="` + status + `"} `
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatalf("no kcenter_tenants sample for status %q", status)
		return 0
	}
	var hz healthzResponse
	getJSON(t, ts, "/v1/healthz", &hz)
	var def statsResponse
	getJSON(t, ts, "/v1/stats", &def)
	agg := def.Aggregate
	active, degraded, failed := statusCount("active"), statusCount("degraded"), statusCount("failed")
	if degraded != 1 || failed != 1 || active != 2 {
		t.Fatalf("kcenter_tenants active/degraded/failed = %d/%d/%d, want 2/1/1", active, degraded, failed)
	}
	if len(hz.DegradedTenants) != degraded || agg.DegradedTenants != degraded {
		t.Errorf("degraded: metrics %d, healthz %v, aggregate %d", degraded, hz.DegradedTenants, agg.DegradedTenants)
	}
	if len(hz.FailedTenants) != failed || agg.FailedTenants != failed {
		t.Errorf("failed: metrics %d, healthz %v, aggregate %d", failed, hz.FailedTenants, agg.FailedTenants)
	}
	if total := active + degraded + failed; hz.Tenants != total || agg.Tenants != total {
		t.Errorf("tenants: metrics %d, healthz %d, aggregate %d", total, hz.Tenants, agg.Tenants)
	}
}
