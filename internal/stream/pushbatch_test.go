package stream

import (
	"math"
	"strings"
	"testing"

	"kcenter/internal/dataset"
)

// TestPushBatchMatchesSequentialPush pins PushBatch's contract: a batch is
// routed exactly as the same points pushed one by one — point j of a batch
// issued at cursor c lands on shard (c+j) mod shards, in order — so the
// final clustering, the per-shard states and the routing cursor are
// bit-identical between the two paths, across shard counts (including
// non-powers of two, which exercise the stripe-start arithmetic at every
// cursor offset) and ragged batch sizes that leave the cursor misaligned
// between batches.
func TestPushBatchMatchesSequentialPush(t *testing.T) {
	ds := dataset.Gau(dataset.GauConfig{N: 2000, KPrime: 8, Seed: 17}).Points
	for _, shards := range []int{1, 3, 4, 7} {
		for _, batch := range []int{1, 2, 5, 64, 257} {
			seq, err := NewSharded(ShardedConfig{K: 9, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			bat, err := NewSharded(ShardedConfig{K: 9, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < ds.N; lo += batch {
				hi := lo + batch
				if hi > ds.N {
					hi = ds.N
				}
				pts := make([][]float64, 0, hi-lo)
				for i := lo; i < hi; i++ {
					pts = append(pts, ds.At(i))
					if err := seq.Push(ds.At(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := bat.PushBatch(pts); err != nil {
					t.Fatal(err)
				}
			}
			rs, err := seq.Finish()
			if err != nil {
				t.Fatal(err)
			}
			rb, err := bat.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if rb.Bound != rs.Bound || rb.LowerBound != rs.LowerBound ||
				rb.Ingested != rs.Ingested || rb.Centers.N != rs.Centers.N {
				t.Fatalf("shards=%d batch=%d: results differ: %+v vs %+v", shards, batch, rb, rs)
			}
			for i := 0; i < rs.Centers.N; i++ {
				for d := 0; d < rs.Centers.Dim; d++ {
					if rb.Centers.At(i)[d] != rs.Centers.At(i)[d] {
						t.Fatalf("shards=%d batch=%d: center %d dim %d: %v != %v",
							shards, batch, i, d, rb.Centers.At(i)[d], rs.Centers.At(i)[d])
					}
				}
			}
			for i := range rs.PerShard {
				if rb.PerShard[i] != rs.PerShard[i] {
					t.Fatalf("shards=%d batch=%d: shard %d state differs: %+v vs %+v",
						shards, batch, i, rb.PerShard[i], rs.PerShard[i])
				}
			}
			if seq.next.Load() != bat.next.Load() {
				t.Fatalf("shards=%d batch=%d: cursor %d vs %d",
					shards, batch, bat.next.Load(), seq.next.Load())
			}
		}
	}
}

// TestPushBatchValidation: a bad batch (empty, ragged or non-finite point)
// is rejected whole, before any point is routed, and batch dimension
// pinning matches Push's.
func TestPushBatchValidation(t *testing.T) {
	sh, err := NewSharded(ShardedConfig{K: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.PushBatch(nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
	if err := sh.PushBatch([][]float64{{}}); err == nil {
		t.Fatal("empty point should fail")
	}
	if err := sh.PushBatch([][]float64{{1, 2}, {1, 2, 3}}); err == nil {
		t.Fatal("ragged batch should fail")
	}
	err = sh.PushBatch([][]float64{{1, 2}, {3, math.Inf(-1)}})
	if err == nil || !strings.Contains(err.Error(), "point 1 ") || !strings.Contains(err.Error(), "coordinate 1") {
		t.Fatalf("batch with -Inf: got %v, want an error naming point 1, coordinate 1", err)
	}
	if err := sh.PushBatch([][]float64{{1, 2}, {3, 4}, {5, 6}}); err != nil {
		t.Fatal(err)
	}
	if err := sh.PushBatch([][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("cross-batch dimension mismatch should fail")
	}
	res, err := sh.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != 3 {
		t.Fatalf("ingested %d, want 3 (failed batches must route nothing)", res.Ingested)
	}
	if err := sh.PushBatch([][]float64{{9, 9}}); err == nil {
		t.Fatal("PushBatch after Finish should fail")
	}
}
