// Characterization tests of the operator read surfaces: the exact reply
// bytes of /v1/stats, /v1/tenants, /v1/healthz and /metrics in each tenant
// state they distinguish (single-tenant, multi-tenant default view and named
// tenants, healthy, degraded and failed tenants, telemetry off and on).
// perfbench and operators parse these replies, so any refactor of how the
// handlers read tenants must leave them byte-identical.
//
// Only values the wall clock or the scheduler decides are masked (to "~"):
// uptimes, creation and checkpoint timestamps, replication staleness,
// latency quantiles and histogram samples, and the burst-drain round count
// (how many rounds a shard needed to drain its channel depends on goroutine
// timing). The temporary checkpoint directory is written as $DIR. Everything
// else must match testdata/golden/<name>.golden exactly. Regenerate with
//
//	go test ./internal/server -run TestWireGolden -update

package server

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"kcenter/internal/fault"
	"kcenter/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current replies")

// jsonClockKeys are the /v1/stats, /v1/tenants and /v1/healthz keys whose
// values come from the wall clock.
var jsonClockKeys = regexp.MustCompile(`"(uptime_seconds|created_unix_nano|last_checkpoint_unix_nano|staleness_seconds|p50_ms|p99_ms|max_ms)":[-+0-9.eE]+`)

// maskJSON masks the wall-clock values of a JSON reply.
func maskJSON(body string) string {
	return jsonClockKeys.ReplaceAllString(body, `"$1":"~"`)
}

// maskProm masks the wall-clock and scheduler-decided samples of a /metrics
// reply: the uptime gauge and replication staleness always, and — when
// telemetry is armed — every histogram sample and the burst-drain counter.
func maskProm(body string, telemetry bool) string {
	hist := map[string]bool{}
	lines := strings.Split(body, "\n")
	for i, line := range lines {
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, typ, _ := strings.Cut(fam, " "); typ == "histogram" {
				hist[name] = true
			}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		mask := name == "kcenter_uptime_seconds" || name == "kcenter_tenant_replicate_staleness_seconds"
		if telemetry && (hist[base] || name == "kcenter_tenant_burst_drains_total") {
			mask = true
		}
		if mask {
			lines[i] = line[:strings.LastIndexByte(line, ' ')] + " ~"
		}
	}
	return strings.Join(lines, "\n")
}

// checkGolden compares a masked reply with testdata/golden/<name>.golden
// (or rewrites the file under -update).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s: reply differs from %s\n--- got\n%s\n--- want\n%s", name, path, got, want)
	}
}

// goldenGet fetches path and returns its status line, content type and
// body, with the temporary directory replaced by $DIR.
func goldenGet(t *testing.T, ts *httptest.Server, path, dir string) (int, string) {
	t.Helper()
	resp, body := getBody(t, ts, path)
	if dir != "" {
		body = strings.ReplaceAll(body, dir, "$DIR")
	}
	return resp.StatusCode, resp.Header.Get("Content-Type") + "\n" + body
}

// settle waits until every live tenant has pushed all it accepted (or
// dropped it) and its shards have absorbed every pushed point, so counters
// and center sets are quiet.
func settle(t *testing.T, s *Service) {
	t.Helper()
	waitFor(t, "ingestion to settle", func() bool {
		s.tmu.RLock()
		defer s.tmu.RUnlock()
		for _, tn := range s.tenants {
			if tn.failed != nil {
				continue
			}
			ingested := tn.ingestedPoints.Load()
			if tn.pendingBatches.Load() != 0 || ingested+tn.totalDropped() != tn.acceptedPoints.Load() {
				return false
			}
			var absorbed int64
			for _, sh := range tn.sh.PerShardStats() {
				absorbed += sh.Ingested
			}
			if absorbed != ingested {
				return false
			}
		}
		return true
	})
}

// goldenIngest sends pts to tenant in batches of batch points.
func goldenIngest(t *testing.T, ts *httptest.Server, tenant string, hdr map[string]string, pts [][]float64, batch int) {
	t.Helper()
	for lo := 0; lo < len(pts); lo += batch {
		hi := min(lo+batch, len(pts))
		if resp, body := tenantPost(t, ts, "/v1/ingest", tenant, hdr, ingestRequest{Points: pts[lo:hi]}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %s: %d %s", tenant, resp.StatusCode, body)
		}
	}
}

func goldenAssign(t *testing.T, ts *httptest.Server, tenant string, pts [][]float64) {
	t.Helper()
	if resp, body := tenantPost(t, ts, "/v1/assign", tenant, nil, assignRequest{Points: pts}); resp.StatusCode != http.StatusOK {
		t.Fatalf("assign %s: %d %s", tenant, resp.StatusCode, body)
	}
}

func TestWireGolden(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		s := newTestService(t, Config{K: 4, Shards: 2})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		goldenIngest(t, ts, "", nil, genPoints(200, 3), 50)
		settle(t, s)
		goldenAssign(t, ts, "", genPoints(8, 4))
		code, body := goldenGet(t, ts, "/v1/stats", "")
		if code != http.StatusOK {
			t.Fatalf("stats: %d", code)
		}
		checkGolden(t, "stats_single", maskJSON(body))
	})

	t.Run("multi", func(t *testing.T) {
		faults := new(fault.Set)
		dir := t.TempDir()
		s := newTestService(t, Config{
			K: 4, Shards: 2, MaxTenants: 4, Faults: faults,
			CheckpointPath: filepath.Join(dir, "state.ckpt"), CheckpointInterval: time.Hour,
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		goldenIngest(t, ts, "", nil, genPoints(120, 3), 40)
		goldenIngest(t, ts, "beta", nil, genPoints(90, 5), 30)
		goldenIngest(t, ts, "alpha", map[string]string{TenantKHeader: "3", TenantShardsHeader: "1"}, genPoints(60, 9), 20)
		settle(t, s)
		goldenAssign(t, ts, "", genPoints(8, 4))
		goldenAssign(t, ts, "alpha", genPoints(5, 6))
		if err := s.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		get := func(name, path string, want int) {
			t.Helper()
			code, body := goldenGet(t, ts, path, dir)
			if code != want {
				t.Fatalf("%s: status %d, want %d", path, code, want)
			}
			checkGolden(t, name, maskJSON(body))
		}
		get("healthz_ok", "/v1/healthz", http.StatusOK)

		// Degrade beta: its next batch panics the ingest worker, so the
		// batch is dropped and the tenant quarantined.
		if err := faults.Arm(map[string]fault.Rule{fault.ServerIngest: {Mode: fault.ModePanic}}); err != nil {
			t.Fatal(err)
		}
		goldenIngest(t, ts, "beta", nil, genPoints(30, 7), 30)
		bt, _ := s.lookup("beta")
		waitFor(t, "beta degraded", func() bool { return bt.checkDegraded() != nil })
		faults.Disarm()
		settle(t, s)

		get("healthz_degraded", "/v1/healthz", http.StatusOK)
		get("stats_multi_default", "/v1/stats", http.StatusOK)
		get("stats_multi_alpha", "/v1/stats?tenant=alpha", http.StatusOK)
		get("stats_multi_beta", "/v1/stats?tenant=beta", http.StatusOK)
		get("tenants", "/v1/tenants", http.StatusOK)
		code, body := goldenGet(t, ts, "/metrics", dir)
		if code != http.StatusOK {
			t.Fatalf("metrics: %d", code)
		}
		checkGolden(t, "metrics_off", maskProm(body, false))
	})

	t.Run("telemetry", func(t *testing.T) {
		// A corrupt checkpoint for "gamma" makes it a failed tenant.
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "state.ckpt.d"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "state.ckpt.d", "gamma.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
		s := newTestService(t, Config{
			K: 4, Shards: 2, MaxTenants: 4, Telemetry: true,
			CheckpointPath: filepath.Join(dir, "state.ckpt"), CheckpointInterval: time.Hour,
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		goldenIngest(t, ts, "", nil, genPoints(100, 3), 50)
		goldenIngest(t, ts, "alpha", nil, genPoints(60, 9), 30)
		settle(t, s)
		goldenAssign(t, ts, "", genPoints(8, 4))
		goldenAssign(t, ts, "alpha", genPoints(5, 6))
		// Traces finish after the reply is written; wait for every route's
		// histogram (and the worker's push stage) so the set of non-empty
		// stage series is fixed.
		for _, tn := range []string{DefaultTenant, "alpha"} {
			tt, _ := s.lookup(tn)
			waitRouteCount(t, tt.metrics, obs.RouteIngest, 2)
			waitRouteCount(t, tt.metrics, obs.RouteAssign, 1)
			waitFor(t, "push stage", func() bool { return tt.metrics.StageHist(obs.RouteIngest, obs.StagePush).Count() == 2 })
		}
		for _, c := range []struct{ name, path string }{
			{"stats_telemetry", "/v1/stats"},
			{"tenants_failed", "/v1/tenants"},
			{"healthz_failed", "/v1/healthz"},
		} {
			code, body := goldenGet(t, ts, c.path, dir)
			if code != http.StatusOK {
				t.Fatalf("%s: %d", c.path, code)
			}
			checkGolden(t, c.name, maskJSON(body))
		}
		code, body := goldenGet(t, ts, "/metrics", dir)
		if code != http.StatusOK {
			t.Fatalf("metrics: %d", code)
		}
		checkGolden(t, "metrics_on", maskProm(body, true))
	})
}
