// Shard panic containment: a panic inside a shard goroutine (injected at
// the stream.shard fault point) must never crash the process or block
// producers — the ingester flips to drain-and-discard, counts every lost
// point, and reports a typed failure from Snapshot and Finish.

package stream

import (
	"errors"
	"testing"
	"time"

	"kcenter/internal/fault"
)

func TestShardPanicContained(t *testing.T) {
	faults := new(fault.Set)
	sh, err := NewSharded(ShardedConfig{K: 8, Shards: 4, Buffer: 16, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	// Let some healthy traffic land first, then arm a panic on every
	// subsequent consumed message.
	batch := make([][]float64, 32)
	for i := range batch {
		batch[i] = []float64{float64(i), float64(i % 7)}
	}
	if err := sh.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Wait for every shard to consume its stripe of the healthy batch: a
	// stripe still queued when the panic is armed would be dropped on top
	// of the points pushed after arming.
	deadline := time.Now().Add(5 * time.Second)
	for consumed(sh) < int64(len(batch)) {
		if time.Now().After(deadline) {
			t.Fatal("shards never consumed the healthy batch")
		}
		time.Sleep(time.Millisecond)
	}
	if err := faults.Arm(map[string]fault.Rule{
		fault.StreamShard: {Mode: fault.ModePanic},
	}); err != nil {
		t.Fatal(err)
	}
	// Push far more messages than the channel buffers hold: if containment
	// failed to keep the shards draining, this would deadlock.
	var pushed int64
	for b := 0; b < 64; b++ {
		if err := sh.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		pushed += int64(len(batch))
	}
	for sh.Failed() == nil {
		if time.Now().After(deadline) {
			t.Fatal("shard panic never surfaced via Failed")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(sh.Failed(), ErrShardFailed) {
		t.Fatalf("Failed() = %v, want ErrShardFailed", sh.Failed())
	}
	if _, err := sh.Snapshot(); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("Snapshot after failure = %v, want ErrShardFailed", err)
	}
	faults.Disarm()
	// Finish must still reap every goroutine, drain the backlog into the
	// dropped counter, and refuse to produce a merge.
	if _, err := sh.Finish(); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("Finish after failure = %v, want ErrShardFailed", err)
	}
	dropped := sh.DroppedPoints()
	if dropped <= 0 || dropped > pushed {
		t.Fatalf("dropped %d points, want in (0, %d]", dropped, pushed)
	}
	// Every post-failure point is either dropped or was summarized before
	// its shard saw the failure; with the panic firing at message entry the
	// identity is exact: pushed (after arming) == dropped + consumed-after,
	// and consumed-after is 0 because every consume panics.
	if dropped != pushed {
		t.Logf("dropped=%d pushed-after-arm=%d (some messages raced the arm)", dropped, pushed)
	}
}

// consumed sums the points the shards have consumed so far.
func consumed(sh *Sharded) int64 {
	var n int64
	for _, st := range sh.PerShardStats() {
		n += st.Ingested
	}
	return n
}

// TestShardDelayWedgesWithoutFailure: a delay rule slows shards down but
// must not mark the ingester failed — it models a wedged disk/CPU, not a
// crash.
func TestShardDelayWedgesWithoutFailure(t *testing.T) {
	faults := new(fault.Set)
	if err := faults.Arm(map[string]fault.Rule{
		fault.StreamShard: {Mode: fault.ModeDelay, Delay: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(ShardedConfig{K: 4, Shards: 2, Buffer: 8, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := sh.Push([]float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sh.Finish()
	if err != nil {
		t.Fatalf("Finish under delay rule: %v", err)
	}
	if sh.Failed() != nil || sh.DroppedPoints() != 0 {
		t.Fatalf("delay rule marked failure: %v dropped=%d", sh.Failed(), sh.DroppedPoints())
	}
	if res.Ingested != 20 {
		t.Fatalf("ingested %d, want 20", res.Ingested)
	}
}
