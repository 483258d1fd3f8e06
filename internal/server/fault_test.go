// Failure-containment tests, driven by injected faults: a panic in one
// tenant's ingest worker quarantines only that tenant (siblings and the
// process survive, reads keep serving the last good snapshot), a panic
// escaping a handler is a JSON 500, and checkpoint write failures back off
// and surface in /v1/stats without ever corrupting the on-disk state.

package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"kcenter/internal/fault"
	"kcenter/internal/stream"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIngestWorkerPanicDegradesOnlyThatTenant(t *testing.T) {
	faults := new(fault.Set)
	s := newTestService(t, Config{K: 8, Shards: 2, MaxTenants: 4, Faults: faults})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pts := genPoints(400, 7)
	ingest := func(tenant string, lo, hi int) (*http.Response, []byte) {
		return postJSON(t, ts, "/v1/ingest", ingestRequest{Points: pts[lo:hi], Tenant: tenant})
	}
	// Warm the default tenant (so the cleanup Close has something to flush)
	// and both named tenants; cache a query snapshot for the victim, so the
	// degraded read path has a last good view to serve.
	if resp, body := ingest("", 0, 50); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("default warmup: %d %s", resp.StatusCode, body)
	}
	if resp, body := ingest("victim", 0, 200); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("victim warmup: %d %s", resp.StatusCode, body)
	}
	if resp, body := ingest("quiet", 0, 200); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("quiet warmup: %d %s", resp.StatusCode, body)
	}
	vt, _ := s.lookup("victim")
	qt, _ := s.lookup("quiet")
	waitFor(t, "warmup ingestion", func() bool {
		return vt.ingestedPoints.Load() == 200 && qt.ingestedPoints.Load() == 200
	})
	var warmCenters centersResponse
	if resp := getJSON(t, ts, "/v1/centers?tenant=victim", &warmCenters); resp.StatusCode != http.StatusOK {
		t.Fatalf("victim centers warmup: %d", resp.StatusCode)
	}

	if err := faults.Arm(map[string]fault.Rule{
		fault.ServerIngest: {Mode: fault.ModePanic},
	}); err != nil {
		t.Fatal(err)
	}
	// The batch is accepted (the panic fires in the worker, not the
	// handler), then the worker's containment degrades the tenant.
	if resp, body := ingest("victim", 200, 300); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("victim ingest under fault: %d %s", resp.StatusCode, body)
	}
	waitFor(t, "victim degraded", func() bool { return vt.checkDegraded() != nil })
	faults.Disarm()

	// Ingest to the degraded tenant is refused up front now.
	if resp, body := ingest("victim", 300, 400); resp.StatusCode != http.StatusConflict {
		t.Fatalf("degraded ingest = %d %s, want 409", resp.StatusCode, body)
	}
	// Reads keep serving the last good snapshot.
	var cr centersResponse
	if resp := getJSON(t, ts, "/v1/centers?tenant=victim", &cr); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded centers read: %d", resp.StatusCode)
	}
	if cr.Snapshot.Version != warmCenters.Snapshot.Version {
		t.Fatalf("degraded read version %d, want last good %d", cr.Snapshot.Version, warmCenters.Snapshot.Version)
	}
	// The quiet sibling is untouched: ingest still lands.
	if resp, body := ingest("quiet", 200, 400); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("quiet ingest after sibling degraded: %d %s", resp.StatusCode, body)
	}
	waitFor(t, "quiet ingestion", func() bool { return qt.ingestedPoints.Load() == 400 })
	if qt.checkDegraded() != nil || qt.totalDropped() != 0 {
		t.Fatalf("quiet tenant affected: %v dropped=%d", qt.checkDegraded(), qt.totalDropped())
	}

	// The registry and stats surface the quarantine with its typed cause.
	var tr tenantsResponse
	getJSON(t, ts, "/v1/tenants", &tr)
	status := map[string]string{}
	for _, ti := range tr.Tenants {
		status[ti.Name] = ti.Status
		if ti.Name == "victim" && !strings.Contains(ti.Error, "tenant failed") {
			t.Fatalf("victim error %q does not carry the typed failure", ti.Error)
		}
	}
	if status["victim"] != "degraded" || status["quiet"] != "active" {
		t.Fatalf("statuses = %v, want victim degraded / quiet active", status)
	}
	var st statsResponse
	getJSON(t, ts, "/v1/stats?tenant=victim", &st)
	if !st.Degraded || st.DegradedError == "" {
		t.Fatalf("victim stats not degraded: %+v", st)
	}
	// Accounting: every accepted point is either ingested or dropped.
	if got := st.IngestedPoints + st.DroppedPoints; got != st.AcceptedPoints {
		t.Fatalf("ingested %d + dropped %d != accepted %d", st.IngestedPoints, st.DroppedPoints, st.AcceptedPoints)
	}
	if st.DroppedPoints == 0 {
		t.Fatal("degraded tenant reports no dropped points")
	}

	// Healthz: degraded overall status, the victim listed, still 200 (a
	// contained tenant failure must not fail readiness).
	var hz healthzResponse
	if resp := getJSON(t, ts, "/v1/healthz", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}
	if hz.Status != "degraded" || !hz.Live || !hz.Ready {
		t.Fatalf("healthz = %+v, want degraded/live/ready", hz)
	}
	if len(hz.DegradedTenants) != 1 || hz.DegradedTenants[0] != "victim" {
		t.Fatalf("degraded_tenants = %v, want [victim]", hz.DegradedTenants)
	}
}

func TestHandlerPanicAnsweredWith500(t *testing.T) {
	faults := new(fault.Set)
	s := newTestService(t, Config{K: 4, Faults: faults})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := faults.Arm(map[string]fault.Rule{
		fault.ServerDecode: {Mode: fault.ModePanic},
	}); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts, "/v1/ingest", ingestRequest{Points: [][]float64{{1, 2}}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d %s, want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Fatalf("500 body %q lacks the JSON error contract", body)
	}
	faults.Disarm()

	// The process and service survived: the same request now succeeds, and
	// the contained panic is counted.
	resp, body = postJSON(t, ts, "/v1/ingest", ingestRequest{Points: [][]float64{{1, 2}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery ingest = %d %s, want 202", resp.StatusCode, body)
	}
	var hz healthzResponse
	getJSON(t, ts, "/v1/healthz", &hz)
	if hz.HandlerPanics < 1 {
		t.Fatalf("handler_panics = %d, want >= 1", hz.HandlerPanics)
	}
	if hz.Status != "ok" {
		t.Fatalf("healthz status %q after recovery, want ok", hz.Status)
	}
}

func TestDecodeFaultErrorModeIs400(t *testing.T) {
	faults := new(fault.Set)
	s := newTestService(t, Config{K: 4, Faults: faults})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := faults.Arm(map[string]fault.Rule{
		fault.ServerDecode: {Mode: fault.ModeErrorOnce},
	}); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts, "/v1/ingest", ingestRequest{Points: [][]float64{{1, 2}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("injected decode error = %d %s, want 400", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts, "/v1/ingest", ingestRequest{Points: [][]float64{{1, 2}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second ingest after error-once = %d %s, want 202", resp.StatusCode, body)
	}
}

func TestCkptBackoffBoundsAndCap(t *testing.T) {
	const interval = 10 * time.Second
	for streak := 0; streak <= 8; streak++ {
		shift := streak - 1
		if shift < 0 {
			shift = 0
		}
		if shift > 4 {
			shift = 4
		}
		base := interval << uint(shift)
		lo := time.Duration(float64(base) * 0.75)
		hi := time.Duration(float64(base) * 1.25)
		for i := 0; i < 50; i++ {
			d := ckptBackoff(interval, streak)
			if d < lo || d > hi {
				t.Fatalf("ckptBackoff(%v, %d) = %v, want in [%v, %v]", interval, streak, d, lo, hi)
			}
		}
	}
	// The cap: streak 100 must not overflow past the 16x ceiling.
	if d := ckptBackoff(interval, 100); d > time.Duration(float64(interval<<4)*1.25) {
		t.Fatalf("ckptBackoff cap exceeded: %v", d)
	}
}

func TestCheckpointFailureBackoffAndRecovery(t *testing.T) {
	faults := new(fault.Set)
	dir := t.TempDir()
	s := newTestService(t, Config{
		K:                  6,
		Faults:             faults,
		CheckpointPath:     dir + "/state.ckpt",
		CheckpointInterval: time.Hour, // keep the background loop out of the way
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	pts := genPoints(300, 11)
	ingestAll(t, ts, s, pts, 100)

	// First write succeeds: a last good checkpoint exists on disk.
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := faults.Arm(map[string]fault.Rule{
		fault.CheckpointSync: {Mode: fault.ModeError},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointNow(); err == nil {
		t.Fatal("CheckpointNow under fsync fault succeeded")
	}
	var st statsResponse
	getJSON(t, ts, "/v1/stats", &st)
	if st.CheckpointErrors < 1 || st.LastCheckpointError == "" {
		t.Fatalf("failure not surfaced: errors=%d last=%q", st.CheckpointErrors, st.LastCheckpointError)
	}
	if !strings.Contains(st.LastCheckpointError, "injected fault") {
		t.Fatalf("last_checkpoint_error %q does not name the injected fault", st.LastCheckpointError)
	}
	if s.tenant.ckptRetryTime().IsZero() {
		t.Fatal("no backoff deadline set after a write failure")
	}
	// A second failure grows the streak (backoff doubles behind the scenes).
	_ = s.CheckpointNow()
	s.tenant.ckptMu.Lock()
	streak := s.tenant.ckptFailStreak
	s.tenant.ckptMu.Unlock()
	if streak != 2 {
		t.Fatalf("fail streak = %d, want 2", streak)
	}

	faults.Disarm()
	if err := s.CheckpointNow(); err != nil {
		t.Fatalf("CheckpointNow after disarming faults: %v", err)
	}
	// Fresh struct: last_checkpoint_error is omitempty, so the healthy reply
	// omits it entirely and a reused struct would keep the stale value.
	var healthy statsResponse
	getJSON(t, ts, "/v1/stats", &healthy)
	if healthy.LastCheckpointError != "" {
		t.Fatalf("last_checkpoint_error = %q after recovery, want empty", healthy.LastCheckpointError)
	}
	if !s.tenant.ckptRetryTime().IsZero() {
		t.Fatal("backoff deadline not cleared after recovery")
	}
}

// TestHealthzListsDefaultTenantFirst pins degraded_tenants to the order of
// every other listing: the default tenant first, then the rest by name, so
// a degraded default tenant comes before a degraded "alpha".
func TestHealthzListsDefaultTenantFirst(t *testing.T) {
	faults := new(fault.Set)
	s := newTestService(t, Config{K: 4, Shards: 1, MaxTenants: 4, Faults: faults})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the default tenant, so the cleanup Close has something to flush.
	pts := genPoints(40, 3)
	if resp, body := postJSON(t, ts, "/v1/ingest", ingestRequest{Points: pts}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("default warmup: %d %s", resp.StatusCode, body)
	}
	waitFor(t, "default warmup ingestion", func() bool { return s.tenant.ingestedPoints.Load() == 40 })
	if err := faults.Arm(map[string]fault.Rule{fault.ServerIngest: {Mode: fault.ModePanic}}); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"alpha", ""} {
		if resp, body := postJSON(t, ts, "/v1/ingest", ingestRequest{Points: pts, Tenant: tenant}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %q: %d %s", tenant, resp.StatusCode, body)
		}
	}
	at, _ := s.lookup("alpha")
	waitFor(t, "both tenants degraded", func() bool {
		return at.checkDegraded() != nil && s.tenant.checkDegraded() != nil
	})
	faults.Disarm()

	var hz healthzResponse
	if resp := getJSON(t, ts, "/v1/healthz", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}
	if want := []string{DefaultTenant, "alpha"}; !reflect.DeepEqual(hz.DegradedTenants, want) {
		t.Fatalf("degraded_tenants = %v, want %v", hz.DegradedTenants, want)
	}
}

func TestHealthzLivenessVsReadiness(t *testing.T) {
	s := newTestService(t, Config{K: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var hz healthzResponse
	if resp := getJSON(t, ts, "/v1/healthz", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy healthz = %d, want 200", resp.StatusCode)
	}
	if hz.Status != "ok" || !hz.Live || !hz.Ready || hz.Tenants != 1 {
		t.Fatalf("healthy healthz = %+v", hz)
	}
	if resp := getJSON(t, ts, "/v1/healthz?probe=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus probe = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts, "/v1/healthz", struct{}{}); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST healthz = %d, want 405", resp.StatusCode)
	}

	// After Close begins, readiness drops (503) but liveness stays 200 so an
	// orchestrator drains the instance instead of killing it mid-shutdown.
	if _, err := s.Close(context.Background()); err != nil && !errors.Is(err, stream.ErrEmpty) {
		t.Fatal(err)
	}
	if resp := getJSON(t, ts, "/v1/healthz", &hz); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shutting-down healthz = %d, want 503", resp.StatusCode)
	}
	if hz.Status != "shutting-down" || hz.Ready || !hz.Live {
		t.Fatalf("shutting-down healthz = %+v", hz)
	}
	if resp := getJSON(t, ts, "/v1/healthz?probe=live", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("liveness probe while shutting down = %d, want 200", resp.StatusCode)
	}
}
