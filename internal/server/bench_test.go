package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kcenter/internal/dataset"
)

// The serving benchmarks measure the full HTTP round trip (loopback,
// JSON codec, handler, kernels) per batched request — the numbers a
// capacity plan for the serving layer starts from. Both land in
// BENCH_kernels.json via scripts/bench.sh.

func benchService(b *testing.B, cfg Config) (*Service, *httptest.Server) {
	b.Helper()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := s.Close(ctx); err != nil {
			b.Errorf("close: %v", err)
		}
	})
	return s, ts
}

func marshalBatch(b *testing.B, pts [][]float64) []byte {
	b.Helper()
	body, err := json.Marshal(ingestRequest{Points: pts})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkServeIngest measures one POST /v1/ingest of a 256-point batch
// (validate + enqueue; the shards cluster concurrently behind the queue).
func BenchmarkServeIngest(b *testing.B) {
	s, ts := benchService(b, Config{K: 25, Shards: 4, QueueDepth: 256})
	l := dataset.Gau(dataset.GauConfig{N: 100000, KPrime: 25, Seed: 91})
	const batch = 256
	bodies := make([][]byte, 0, l.Points.N/batch)
	for lo := 0; lo+batch <= l.Points.N; lo += batch {
		pts := make([][]float64, batch)
		for i := range pts {
			pts[i] = l.Points.At(lo + i)
		}
		bodies = append(bodies, marshalBatch(b, pts))
	}
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/ingest", "application/json",
			bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch)*float64(b.N)*float64(time.Second)/float64(b.Elapsed()+1), "pts/s")
	_ = s
}

// BenchmarkServeAssign measures one POST /v1/assign of a 256-point batch
// against a warmed snapshot (steady-state serving: cache hit, adaptive
// nearest-center kernel per point).
func BenchmarkServeAssign(b *testing.B) {
	s, ts := benchService(b, Config{K: 25, Shards: 4})
	l := dataset.Gau(dataset.GauConfig{N: 20000, KPrime: 25, Seed: 92})
	// Seed the clustering and wait for the drain so the snapshot is stable.
	const seedBatch = 1000
	for lo := 0; lo < l.Points.N; lo += seedBatch {
		pts := make([][]float64, seedBatch)
		for i := range pts {
			pts[i] = l.Points.At(lo + i)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/json",
			bytes.NewReader(marshalBatch(b, pts)))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.ingestedPoints.Load() < int64(l.Points.N) {
		if time.Now().After(deadline) {
			b.Fatal("seed ingestion did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	const batch = 256
	queries := make([][]float64, batch)
	for i := range queries {
		queries[i] = l.Points.At((i * 37) % l.Points.N)
	}
	body := marshalBatch(b, queries)
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/assign", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		var ar assignResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(batch)*float64(b.N)*float64(time.Second)/float64(b.Elapsed()+1), "assigns/s")
}
