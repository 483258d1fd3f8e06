package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kcenter/internal/checkpoint"
	"kcenter/internal/stream"
)

// waitShardsDrained blocks until the sharded ingester has consumed n points
// (ingestedPoints counts routed pushes; the shard goroutines consume them
// asynchronously, and a checkpoint captures only consumed state).
func waitShardsDrained(t *testing.T, s *Service, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got int64
		for _, sh := range s.sh.PerShardStats() {
			got += sh.Ingested
		}
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards consumed %d of %d points before timeout", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKillAndResume pins the acceptance criterion of the checkpoint
// subsystem: a server killed mid-ingest and restarted from its checkpoint
// resumes with the identical center set, radius bounds and center-version
// counters it checkpointed.
func TestKillAndResume(t *testing.T) {
	dir := t.TempDir()
	livePath := filepath.Join(dir, "live.ckpt")
	killedPath := filepath.Join(dir, "killed.ckpt")

	cfg := Config{K: 8, Shards: 3, CheckpointPath: livePath, CheckpointInterval: time.Hour}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Restored() != nil {
		t.Fatal("cold start reported a restore")
	}
	ts1 := httptest.NewServer(s1.Handler())
	pts := genPoints(4000, 7)
	ingestAll(t, ts1, s1, pts, 500)
	waitShardsDrained(t, s1, 4000)

	if err := s1.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// Freeze the mid-serve checkpoint under another name: everything the
	// first process does after this point simulates state the kill destroyed.
	b, err := os.ReadFile(livePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(killedPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var c1 centersResponse
	if resp := getJSON(t, ts1, "/v1/centers", &c1); resp.StatusCode != http.StatusOK {
		t.Fatalf("centers status %d", resp.StatusCode)
	}
	var st1 statsResponse
	getJSON(t, ts1, "/v1/stats", &st1)
	if st1.CheckpointWrites == 0 || st1.LastCheckpointUnixNano == 0 {
		t.Fatalf("checkpoint counters not reported: %+v", st1)
	}
	ts1.Close()
	if _, err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh process restoring the frozen checkpoint.
	s2, err := New(Config{K: 8, Shards: 3, CheckpointPath: killedPath, CheckpointInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	rs := s2.Restored()
	if rs == nil {
		t.Fatal("restore did not happen")
	}
	if rs.Ingested != 4000 || rs.Dim != 2 || rs.CentersVersion != c1.Snapshot.Version || rs.Path != killedPath {
		t.Fatalf("restore summary %+v vs snapshot %+v", rs, c1.Snapshot)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// The restored serving state is identical: same snapshot version, same
	// certified bounds, same center coordinates bit for bit.
	var c2 centersResponse
	if resp := getJSON(t, ts2, "/v1/centers", &c2); resp.StatusCode != http.StatusOK {
		t.Fatalf("restored centers status %d", resp.StatusCode)
	}
	if c2.Snapshot.Version != c1.Snapshot.Version ||
		c2.Snapshot.Radius != c1.Snapshot.Radius ||
		c2.Snapshot.LowerBound != c1.Snapshot.LowerBound ||
		c2.Snapshot.Ingested != c1.Snapshot.Ingested ||
		len(c2.Centers) != len(c1.Centers) {
		t.Fatalf("restored snapshot differs:\n%+v\n%+v", c2.Snapshot, c1.Snapshot)
	}
	for i := range c1.Centers {
		for d := range c1.Centers[i] {
			if c2.Centers[i][d] != c1.Centers[i][d] {
				t.Fatalf("center %d dim %d: %v != %v", i, d, c2.Centers[i][d], c1.Centers[i][d])
			}
		}
	}
	var st2 statsResponse
	getJSON(t, ts2, "/v1/stats", &st2)
	if st2.IngestedPoints != 4000 || st2.RestoredPoints != 4000 {
		t.Fatalf("restored counters: ingested %d restored %d", st2.IngestedPoints, st2.RestoredPoints)
	}
	if len(st2.PerShard) != len(st1.PerShard) {
		t.Fatalf("per-shard count %d vs %d", len(st2.PerShard), len(st1.PerShard))
	}
	for i := range st1.PerShard {
		if st2.PerShard[i] != st1.PerShard[i] {
			t.Fatalf("shard %d differs: %+v vs %+v", i, st2.PerShard[i], st1.PerShard[i])
		}
	}

	// The resumed server keeps serving: live ingest of the pinned dimension
	// works, a different dimension is rejected exactly as it would have been
	// before the restart (the checkpoint pinned dim).
	if resp, body := postJSON(t, ts2, "/v1/ingest", ingestRequest{Points: [][]float64{{1, 2}, {3, 4}}}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-restore ingest: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts2, "/v1/ingest", ingestRequest{Points: [][]float64{{1, 2, 3}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dimension mismatch vs restored state: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts2, "/v1/assign", assignRequest{Points: [][]float64{{0, 0, 0}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("assign dimension mismatch vs restored state: %d %s", resp.StatusCode, body)
	}
}

// TestRestoreFailuresAreCleanAndTyped covers the corruption matrix at the
// service level: damaged or mismatched checkpoints must fail construction
// with the typed error — never panic, never serve an empty clustering as if
// the restore had succeeded.
func TestRestoreFailuresAreCleanAndTyped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck")

	// Build a good checkpoint via a real service.
	s1, err := New(Config{K: 6, Shards: 2, CheckpointPath: path, CheckpointInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	ingestAll(t, ts1, s1, genPoints(1500, 3), 500)
	waitShardsDrained(t, s1, 1500)
	if err := s1.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if _, err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	newFrom := func(name string, data []byte, k, shards int) error {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{K: k, Shards: shards, CheckpointPath: p})
		if s != nil {
			s.Close(context.Background())
		}
		return err
	}

	if err := newFrom("truncated", good[:len(good)/2], 6, 2); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("truncated: %v", err)
	}
	future := append([]byte(nil), good...)
	future[8] = 42
	if err := newFrom("future", future, 6, 2); !errors.Is(err, checkpoint.ErrFormatVersion) {
		t.Fatalf("format version: %v", err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-2] ^= 0x40
	if err := newFrom("flipped", flipped, 6, 2); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("bit flip: %v", err)
	}
	if err := newFrom("wrong-k", good, 7, 2); !errors.Is(err, stream.ErrStateMismatch) {
		t.Fatalf("k mismatch: %v", err)
	}
	if err := newFrom("wrong-shards", good, 6, 3); !errors.Is(err, stream.ErrStateMismatch) {
		t.Fatalf("shard mismatch: %v", err)
	}

	// A missing checkpoint is a cold start, not an error.
	s2, err := New(Config{K: 6, Shards: 2, CheckpointPath: filepath.Join(dir, "not-there")})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Restored() != nil {
		t.Fatal("cold start claimed a restore")
	}
	if _, err := s2.Close(context.Background()); !errors.Is(err, stream.ErrEmpty) {
		t.Fatalf("empty close: %v", err)
	}
}

// TestPeriodicCheckpointKeyedByVersion: the background loop writes when the
// center set changed and stays silent when it did not.
func TestPeriodicCheckpointKeyedByVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	s, err := New(Config{K: 5, Shards: 2, CheckpointPath: path, CheckpointInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Idle service: ticks pass, nothing to persist, nothing written.
	time.Sleep(40 * time.Millisecond)
	if n := s.ckptWrites.Load(); n != 0 {
		t.Fatalf("idle service wrote %d checkpoints", n)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("idle service created %s (err %v)", path, err)
	}

	ingestAll(t, ts, s, genPoints(2000, 9), 500)
	waitShardsDrained(t, s, 2000)
	deadline := time.Now().Add(10 * time.Second)
	for s.ckptWrites.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written after ingest")
		}
		time.Sleep(time.Millisecond)
	}
	snap, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.K != 5 || snap.Shards != 2 {
		t.Fatalf("checkpoint meta: %+v", snap)
	}

	// Quiet period: wait until the on-disk version has caught up with the
	// (now stable) live version, then verify further ticks write nothing.
	for s.lastCkptVersion.Load() != s.sh.CentersVersion() {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never caught up with the live version")
		}
		time.Sleep(time.Millisecond)
	}
	before := s.ckptWrites.Load()
	time.Sleep(50 * time.Millisecond)
	if after := s.ckptWrites.Load(); after != before {
		t.Fatalf("quiet period still wrote checkpoints: %d -> %d", before, after)
	}
}

// TestLoadShedding: a full queue with no consumer sheds with 429 and a
// Retry-After hint after the configured patience, and the shed counters are
// reported. The service is assembled without its ingest worker so the queue
// deterministically never drains.
func TestLoadShedding(t *testing.T) {
	cfg, err := Config{K: 2, QueueDepth: 1, ShedAfter: 5 * time.Millisecond}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := stream.NewSharded(stream.ShardedConfig{K: cfg.K, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := &Service{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		done:    make(chan struct{}),
		started: time.Now(),
	}
	s.tenant = &tenant{
		name:   DefaultTenant,
		k:      cfg.K,
		shards: 1,
		svc:    s,
		sh:     sh,
		queue:  make(chan *pointBatch, cfg.QueueDepth),
	}
	s.tenants[DefaultTenant] = s.tenant
	s.routes()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batch := ingestRequest{Points: [][]float64{{1, 2}, {3, 4}, {5, 6}}}
	if resp, body := postJSON(t, ts, "/v1/ingest", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first ingest: %d %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, ts, "/v1/ingest", batch)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("watermark ingest: %d %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
	var st statsResponse
	getJSON(t, ts, "/v1/stats", &st)
	if st.ShedBatches != 1 || st.ShedPoints != 3 {
		t.Fatalf("shed counters: %+v", st)
	}
	if st.PendingBatches != 1 {
		t.Fatalf("pending %d after shed, want 1", st.PendingBatches)
	}

	// Space frees up (the test drains one batch by hand): ingest recovers.
	<-s.queue
	s.pendingBatches.Add(-1)
	if resp, body := postJSON(t, ts, "/v1/ingest", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery ingest: %d %s", resp.StatusCode, body)
	}
}

// TestSheddingDisabledBlocksOnContext: ShedAfter < 0 restores the legacy
// block-until-context-expiry backpressure contract (503, not 429).
func TestSheddingDisabledBlocksOnContext(t *testing.T) {
	cfg, err := Config{K: 2, QueueDepth: 1, ShedAfter: -1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s := &Service{
		cfg:  cfg,
		done: make(chan struct{}),
	}
	s.tenant = &tenant{
		name:  DefaultTenant,
		svc:   s,
		queue: make(chan *pointBatch, cfg.QueueDepth),
	}
	batch := slabBatch([][]float64{{1, 2}})
	if err := s.enqueue(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.enqueue(ctx, batch)
	if err == nil || errors.Is(err, errOverCapacity) {
		t.Fatalf("blocking enqueue: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected context expiry, got %v", err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("blocking enqueue returned before the context expired")
	}
}
