// Switchboard isolation: fault rules and telemetry belong to one Service.
// Two Services share a process; one runs with armed faults and telemetry,
// the other with neither, and traffic on both must never cross over.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kcenter/internal/fault"
	"kcenter/internal/stream"
)

// TestServiceSwitchboardIsolation drives ingest, assign and CheckpointNow on
// two Services at once. Service A carries a shard-panic rule, an ingest
// delay rule and telemetry; Service B carries neither. A must degrade from
// its own rules while B stays healthy, B's Set records no hit, and B's
// /metrics and /v1/stats show nothing of A's switches or samples.
func TestServiceSwitchboardIsolation(t *testing.T) {
	aFaults, bFaults := new(fault.Set), new(fault.Set)
	if err := aFaults.Arm(map[string]fault.Rule{
		// Two shards: the warm-up batch is two shard messages, so the panic
		// fires on the first message of the concurrent phase.
		fault.StreamShard:  {Mode: fault.ModePanic, After: 2},
		fault.ServerIngest: {Mode: fault.ModeDelay, Delay: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{
		K: 5, Shards: 2, Telemetry: true, Faults: aFaults,
		CheckpointPath: filepath.Join(t.TempDir(), "a.ckpt"), CheckpointInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// A's default tenant holds the contained shard panic; Close reports it.
		if _, err := a.Close(context.Background()); !errors.Is(err, stream.ErrShardFailed) {
			t.Errorf("Close of the faulted service = %v, want ErrShardFailed", err)
		}
	}()
	b := newTestService(t, Config{
		K: 5, Shards: 2, Faults: bFaults,
		CheckpointPath: filepath.Join(t.TempDir(), "b.ckpt"), CheckpointInterval: time.Hour,
	})
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	pts := genPoints(600, 17)
	ingestAll(t, tsA, a, pts[:50], 50)
	ingestAll(t, tsB, b, pts[:50], 50)
	// A's last good checkpoint, written under telemetry: its duration
	// samples land in A's histograms and must never show up in B's.
	if err := a.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// Cache a query snapshot on both, so A keeps answering assigns from its
	// last good view once it degrades.
	for _, ts := range []*httptest.Server{tsA, tsB} {
		if resp, body := postJSON(t, ts, "/v1/assign", assignRequest{Points: pts[:10]}); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up assign: %d %s", resp.StatusCode, body)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for _, ts := range []*httptest.Server{tsA, tsB} {
		wg.Add(2)
		go func(ts *httptest.Server) { // producer; A answers 409 once degraded
			defer wg.Done()
			for lo := 50; lo < len(pts); lo += 50 {
				if _, err := post(ts, "/v1/ingest", ingestRequest{Points: pts[lo : lo+50]}); err != nil {
					errc <- err
					return
				}
			}
		}(ts)
		go func(ts *httptest.Server) { // querier
			defer wg.Done()
			for i := 0; i < 20; i++ {
				code, err := post(ts, "/v1/assign", assignRequest{Points: pts[:10]})
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("%s assign: status %d", ts.URL, code)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(ts)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			// A's writes may fail while its shards panic (a capture from a
			// failed ingester is refused); B's must all succeed.
			_ = a.CheckpointNow()
			if err := b.CheckpointNow(); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	waitFor(t, "faulted service degraded by its own rules", func() bool { return a.tenant.checkDegraded() != nil })
	waitFor(t, "clean service drained", func() bool { return b.tenant.ingestedPoints.Load() == int64(len(pts)) })
	if aFaults.Fired(fault.StreamShard) == 0 || aFaults.Hits(fault.ServerIngest) == 0 {
		t.Fatalf("faulted service never hit its rules: shard fired %d, ingest hits %d",
			aFaults.Fired(fault.StreamShard), aFaults.Hits(fault.ServerIngest))
	}
	if err := b.tenant.checkDegraded(); err != nil || b.tenant.totalDropped() != 0 {
		t.Fatalf("clean service degraded: %v, dropped %d", err, b.tenant.totalDropped())
	}
	for _, pt := range []string{fault.StreamShard, fault.ServerIngest, fault.ServerDecode, fault.CheckpointSync} {
		if n := bFaults.Hits(pt); n != 0 {
			t.Fatalf("clean service's Set recorded %d hits at %s", n, pt)
		}
	}
	if err := b.CheckpointNow(); err != nil {
		t.Fatalf("clean service checkpoint: %v", err)
	}

	_, metricsA := getBody(t, tsA, "/metrics")
	_, metricsB := getBody(t, tsB, "/metrics")
	for _, want := range []string{
		"kcenter_fault_injection_armed 0",
		"kcenter_telemetry_armed 0",
		"kcenter_checkpoint_write_duration_seconds_count 0",
		"kcenter_checkpoint_fsync_duration_seconds_count 0",
	} {
		if !strings.Contains(metricsB, want+"\n") {
			t.Errorf("clean service /metrics lacks %q", want)
		}
	}
	for _, want := range []string{"kcenter_fault_injection_armed 1", "kcenter_telemetry_armed 1"} {
		if !strings.Contains(metricsA, want+"\n") {
			t.Errorf("faulted service /metrics lacks %q", want)
		}
	}
	if strings.Contains(metricsA, "kcenter_checkpoint_write_duration_seconds_count 0\n") {
		t.Error("faulted service recorded no checkpoint write duration")
	}

	_, rawB := getBody(t, tsB, "/v1/stats")
	if strings.Contains(rawB, "ingest_latency") || strings.Contains(rawB, "assign_latency") {
		t.Fatalf("clean service /v1/stats carries latency fields: %s", rawB)
	}
}

// post sends one JSON request and returns its status; safe off the test
// goroutine (it reports errors instead of failing the test).
func post(ts *httptest.Server, path string, body any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}
