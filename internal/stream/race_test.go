package stream

import (
	"sync"
	"testing"

	"kcenter/internal/rng"
)

// TestShardedConcurrentProducers pushes from many producer goroutines at
// once and asserts a clean Finish. It is deliberately small so that
// `go test -race -short ./internal/stream/...` — the tier-1 race gate —
// completes in well under a second; the race detector does the real work of
// checking the channel fan-out and the atomic routing state.
func TestShardedConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		perProd   = 500
		k         = 5
		shards    = 4
	)
	sh, err := NewSharded(ShardedConfig{K: k, Shards: shards, Buffer: 32})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := rng.New(uint64(p) + 1)
			buf := make([]float64, 3)
			for i := 0; i < perProd; i++ {
				for j := range buf {
					buf[j] = r.Float64Range(-50, 50)
				}
				// Reusing buf across Pushes checks the copy-on-push
				// contract under the race detector.
				if err := sh.Push(buf); err != nil {
					errs[p] = err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("producer %d: %v", p, err)
		}
	}
	res, err := sh.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != producers*perProd {
		t.Fatalf("ingested %d, want %d", res.Ingested, producers*perProd)
	}
	if res.Centers.N == 0 || res.Centers.N > k {
		t.Fatalf("%d centers, want 1..%d", res.Centers.N, k)
	}
	if res.Bound <= 0 || res.Bound < res.LowerBound {
		t.Fatalf("bound %g, lower bound %g", res.Bound, res.LowerBound)
	}
	var shardTotal int64
	for _, st := range res.PerShard {
		shardTotal += st.Ingested
		if st.Centers > k {
			t.Fatalf("shard kept %d > k centers", st.Centers)
		}
	}
	if shardTotal != res.Ingested {
		t.Fatalf("per-shard totals %d != ingested %d", shardTotal, res.Ingested)
	}
}

// TestShardedSnapshotRace exercises the mid-stream Centers/Snapshot API
// while producers are pushing: snapshot readers take each shard's read
// lock against the shard goroutine's write lock, and the race detector
// checks that every summary read is properly synchronized. The points are
// 2-D and k is above sweepMinCenters, so the shard goroutines rebuild
// their summaries' sorted sweeps while the readers run. Kept small so the
// tier-1 race gate stays fast.
func TestShardedSnapshotRace(t *testing.T) {
	const (
		producers = 4
		readers   = 3
		perProd   = 400
		k         = 12
	)
	sh, err := NewSharded(ShardedConfig{K: k, Shards: 3, Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := sh.Snapshot()
				if err != nil {
					continue // nothing ingested yet
				}
				if snap.Centers.N == 0 || snap.Centers.N > k {
					t.Errorf("snapshot has %d centers, want 1..%d", snap.Centers.N, k)
					return
				}
				if snap.Bound < 0 || snap.LowerBound > snap.Bound {
					t.Errorf("snapshot bound %g, lower bound %g", snap.Bound, snap.LowerBound)
					return
				}
			}
		}()
	}
	var prod sync.WaitGroup
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func(p int) {
			defer prod.Done()
			r := rng.New(uint64(p) + 11)
			for i := 0; i < perProd; i++ {
				_ = sh.Push([]float64{r.Float64Range(-50, 50), r.Float64Range(-50, 50)})
			}
		}(p)
	}
	prod.Wait()
	close(stop)
	wg.Wait()
	res, err := sh.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != producers*perProd {
		t.Fatalf("ingested %d, want %d", res.Ingested, producers*perProd)
	}
	// A post-Finish snapshot sees the final drained state.
	snap, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Ingested != res.Ingested {
		t.Fatalf("post-finish snapshot ingested %d, want %d", snap.Ingested, res.Ingested)
	}
	swept := false
	for i, sum := range sh.summaries {
		sh.sumLocks[i].RLock()
		swept = swept || sum.sweep != nil
		sh.sumLocks[i].RUnlock()
	}
	if !swept {
		t.Fatal("no shard's coverage test used the sorted sweep")
	}
}

// TestShardedConcurrentProducersLarge is the longer soak; skipped in short
// mode so the race gate stays fast.
func TestShardedConcurrentProducersLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const producers, perProd = 16, 5000
	sh, err := NewSharded(ShardedConfig{K: 25, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := rng.New(uint64(p) + 100)
			for i := 0; i < perProd; i++ {
				_ = sh.Push([]float64{r.Float64Range(0, 100), r.Float64Range(0, 100)})
			}
		}(p)
	}
	wg.Wait()
	res, err := sh.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != producers*perProd {
		t.Fatalf("ingested %d, want %d", res.Ingested, producers*perProd)
	}
}
