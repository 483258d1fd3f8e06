// Tests of the exact error replies of tenant resolution: how ingest,
// assign, centers, stats and replicate answer a request for a tenant that
// does not exist, is quarantined, cannot be created, or is pinned to
// another shape.

package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestResolveErrorReplies(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "state.ckpt.d"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "state.ckpt.d", "broken.ckpt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	multi := newTestService(t, Config{
		K: 4, Shards: 2, MaxTenants: 4,
		CheckpointPath: filepath.Join(dir, "state.ckpt"), CheckpointInterval: time.Hour,
	})
	single := newTestService(t, Config{K: 4})
	mts := httptest.NewServer(multi.Handler())
	defer mts.Close()
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()

	// Both default tenants take data, so the cleanup Close has a clustering
	// to flush.
	pts := genPoints(20, 3)
	for _, ts := range []*httptest.Server{mts, sts} {
		if resp, body := postJSON(t, ts, "/v1/ingest", ingestRequest{Points: pts}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("default ingest: %d %s", resp.StatusCode, body)
		}
	}
	if resp, body := tenantPost(t, mts, "/v1/ingest", "alpha", map[string]string{TenantKHeader: "3"}, ingestRequest{Points: pts}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create alpha: %d %s", resp.StatusCode, body)
	}
	frame := buildFrame(t, 4, 1, "peer", "", pts)
	// A corrupt checkpoint found at lazy creation quarantines the name.
	if err := os.WriteFile(filepath.Join(dir, "state.ckpt.d", "late.ckpt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	const brokenErr = `{"error":"tenant \"broken\" unavailable: tenant failed: $DIR/state.ckpt.d/broken.ckpt: checkpoint: corrupt checkpoint: header truncated: 4 bytes"}`
	for _, c := range []struct {
		name   string
		do     func() (int, string)
		status int
		body   string
	}{
		{"assign unknown", func() (int, string) {
			return post2(t, mts, "/v1/assign", "nope", nil, assignRequest{Points: pts})
		}, http.StatusNotFound, `{"error":"unknown tenant \"nope\""}`},
		{"stats unknown", func() (int, string) {
			return get2(t, mts, "/v1/stats?tenant=nope")
		}, http.StatusNotFound, `{"error":"unknown tenant \"nope\""}`},
		{"centers failed", func() (int, string) {
			return get2(t, mts, "/v1/centers?tenant=broken")
		}, http.StatusConflict, brokenErr},
		{"assign failed", func() (int, string) {
			return post2(t, mts, "/v1/assign", "broken", nil, assignRequest{Points: pts})
		}, http.StatusConflict, brokenErr},
		{"ingest failed", func() (int, string) {
			return post2(t, mts, "/v1/ingest", "broken", nil, ingestRequest{Points: pts})
		}, http.StatusConflict, brokenErr},
		{"ingest k conflict", func() (int, string) {
			return post2(t, mts, "/v1/ingest", "alpha", map[string]string{TenantKHeader: "5"}, ingestRequest{Points: pts})
		}, http.StatusConflict, `{"error":"tenant \"alpha\" has k=3, request pins k=5"}`},
		{"ingest shards conflict", func() (int, string) {
			return post2(t, mts, "/v1/ingest", "alpha", map[string]string{TenantShardsHeader: "4"}, ingestRequest{Points: pts})
		}, http.StatusConflict, `{"error":"tenant \"alpha\" has shards=2, request pins shards=4"}`},
		{"ingest bad k header", func() (int, string) {
			return post2(t, mts, "/v1/ingest", "alpha", map[string]string{TenantKHeader: "x"}, ingestRequest{Points: pts})
		}, http.StatusBadRequest, `{"error":"X-Kcenter-K must be a positive integer, got \"x\""}`},
		{"ingest corrupt at creation", func() (int, string) {
			return post2(t, mts, "/v1/ingest", "late", nil, ingestRequest{Points: pts})
		}, http.StatusConflict, `{"error":"tenant \"late\" unavailable: tenant failed: $DIR/state.ckpt.d/late.ckpt: checkpoint: corrupt checkpoint: header truncated: 4 bytes"}`},
		{"ingest past cap", func() (int, string) {
			return post2(t, mts, "/v1/ingest", "gamma", nil, ingestRequest{Points: pts})
		}, http.StatusTooManyRequests, `{"error":"tenant cap reached: 4 tenants exist, max 4"}`},
		{"replicate failed", func() (int, string) {
			return replicate2(multi, "broken", frame)
		}, http.StatusConflict, brokenErr},
		{"replicate past cap", func() (int, string) {
			return replicate2(multi, "delta", frame)
		}, http.StatusTooManyRequests, `{"error":"tenant cap reached: 4 tenants exist, max 4"}`},
		{"ingest unknown single", func() (int, string) {
			return post2(t, sts, "/v1/ingest", "nope", nil, ingestRequest{Points: pts})
		}, http.StatusNotFound, `{"error":"unknown tenant \"nope\" (multi-tenancy is not enabled)"}`},
		{"replicate unknown single", func() (int, string) {
			return replicate2(single, "nope", frame)
		}, http.StatusNotFound, `{"error":"unknown tenant \"nope\" (multi-tenancy is not enabled)"}`},
	} {
		status, body := c.do()
		body = string(bytes.ReplaceAll([]byte(body), []byte(dir), []byte("$DIR")))
		if status != c.status || body != c.body+"\n" {
			t.Errorf("%s: %d %s, want %d %s", c.name, status, body, c.status, c.body)
		}
	}
}

func post2(t *testing.T, ts *httptest.Server, path, tenant string, hdr map[string]string, body any) (int, string) {
	t.Helper()
	resp, b := tenantPost(t, ts, path, tenant, hdr, body)
	return resp.StatusCode, string(b)
}

func get2(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, body := getBody(t, ts, path)
	return resp.StatusCode, body
}

func replicate2(s *Service, tenant string, frame []byte) (int, string) {
	rec := postFrame(s, "peer", tenant, bytes.NewReader(frame))
	return rec.Code, rec.Body.String()
}
