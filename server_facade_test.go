package kcenter

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestServerFacadeLifecycle exercises NewServer through a full ingest →
// assign → Shutdown cycle over real HTTP, checking the final result carries
// the same certified-bound semantics as Stream.Finish.
func TestServerFacadeLifecycle(t *testing.T) {
	srv, err := NewServer(3, ServerOptions{Shards: 2, MaxBatch: 100})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	points := [][]float64{{0, 0}, {1, 0}, {0, 1}, {50, 50}, {51, 50}, {100, 0}}
	b, _ := json.Marshal(map[string][][]float64{"points": points})
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	// Poll assignment until ingestion drains.
	q, _ := json.Marshal(map[string][][]float64{"points": {{0.2, 0.2}}})
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/assign", "application/json", bytes.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("assign never succeeded (last status %d)", resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}

	ts.Close()
	res, err := srv.Shutdown(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != int64(len(points)) {
		t.Fatalf("ingested %d, want %d", res.Ingested, len(points))
	}
	if len(res.Centers) == 0 || len(res.Centers) > 3 {
		t.Fatalf("%d centers, want 1..3", len(res.Centers))
	}
	if res.ApproxFactor != 10 {
		t.Fatalf("approx factor %g, want 10 for sharded ingestion", res.ApproxFactor)
	}
	if res.LowerBound > res.Radius {
		t.Fatalf("certificate inverted: lower %g > radius %g", res.LowerBound, res.Radius)
	}
	// The returned centers must cover the ingested points within Radius.
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	realized, err := RadiusPoints(ds, res.Centers)
	if err != nil {
		t.Fatal(err)
	}
	if realized > res.Radius+1e-12 {
		t.Fatalf("realized radius %g beyond certified bound %g", realized, res.Radius)
	}

	if _, err := srv.Shutdown(context.Background()); err == nil {
		t.Fatal("second Shutdown should fail")
	}
}

// TestNewServerValidation pins how NewServer's k meets ServerOptions.K
// (ServerOptions is server.Config): a zero K takes k, a matching K is
// accepted, and a conflicting K is an error rather than a second source
// for the center budget.
func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(0, ServerOptions{}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := NewServer(3, ServerOptions{K: 5}); err == nil {
		t.Fatal("ServerOptions.K=5 with k=3 should fail")
	}
	for _, optK := range []int{0, 3} {
		srv, err := NewServer(3, ServerOptions{K: optK, MaxBatch: 10})
		if err != nil {
			t.Fatalf("K=%d: %v", optK, err)
		}
		ts := httptest.NewServer(srv.Handler())
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			K      int `json:"k"`
			Shards int `json:"shards"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.K != 3 || st.Shards != 1 {
			t.Fatalf("K=%d: serves k=%d shards=%d, want k=3 shards=1", optK, st.K, st.Shards)
		}
		if _, err := srv.Shutdown(context.Background()); !errors.Is(err, ErrNothingIngested) {
			t.Fatalf("K=%d: idle Shutdown = %v, want ErrNothingIngested", optK, err)
		}
	}
}

// TestServerFacadeMultiTenant exercises the multi-tenant facade surface:
// named tenants route to isolated clusterings, per-tenant checkpoints
// land in the tenant directory, and TenantRestores reports every warm
// start on the next boot.
func TestServerFacadeMultiTenant(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "serve.ckpt")
	opts := ServerOptions{Shards: 2, MaxTenants: 3, DefaultK: 2, CheckpointPath: ckpt}
	srv, err := NewServer(4, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	post := func(tenant string, pts [][]float64) int {
		t.Helper()
		b, _ := json.Marshal(map[string]any{"points": pts, "tenant": tenant})
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("", [][]float64{{0, 0}, {9, 9}}); code != http.StatusAccepted {
		t.Fatalf("default ingest status %d", code)
	}
	if code := post("alpha", [][]float64{{100, 100}, {109, 109}}); code != http.StatusAccepted {
		t.Fatalf("alpha ingest status %d", code)
	}
	ts.Close()
	if _, err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "serve.ckpt.d", "alpha.ckpt")); err != nil {
		t.Fatalf("per-tenant checkpoint missing: %v", err)
	}

	srv2, err := NewServer(4, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	restores := srv2.TenantRestores()
	if len(restores) != 2 {
		t.Fatalf("restores: %+v", restores)
	}
	if restores[0].Tenant != "default" || restores[1].Tenant != "alpha" {
		t.Fatalf("restore order: %+v", restores)
	}
	if restores[1].Ingested != 2 {
		t.Fatalf("alpha restored %d points, want 2", restores[1].Ingested)
	}
	if rs := srv2.Restored(); rs == nil || rs.Tenant != "default" {
		t.Fatalf("default restore: %+v", rs)
	}
}
