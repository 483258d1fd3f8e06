package stream

import (
	"testing"

	"kcenter/internal/dataset"
	"kcenter/internal/obs"
)

// TestShardedObsRecording pins the telemetry hooks in the shard hot path:
// with a sink configured, every consumed message records a channel-dwell
// sample and every drain round records a burst, with the message total
// matching what was pushed; sink-less, the same traffic records nothing —
// producers never even stamp a send time.
func TestShardedObsRecording(t *testing.T) {
	ds := dataset.Gau(dataset.GauConfig{N: 600, KPrime: 5, Seed: 23}).Points

	run := func(sink *obs.StreamMetrics) {
		t.Helper()
		sh, err := NewSharded(ShardedConfig{K: 7, Shards: 3, Obs: sink})
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < ds.N; lo += 100 {
			pts := make([][]float64, 0, 100)
			for i := lo; i < lo+100; i++ {
				pts = append(pts, ds.At(i))
			}
			if err := sh.PushBatch(pts); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.Push(ds.At(0)); err != nil { // single-point path stamps too
			t.Fatal(err)
		}
		if _, err := sh.Finish(); err != nil {
			t.Fatal(err)
		}
	}

	armed := obs.NewTenantMetrics()
	run(&armed.Stream)
	// Every message is consumed by some burst round, so the dwell count and
	// the burst message total both equal the messages sent. PushBatch sends
	// one message per (batch, shard) stripe: 6 batches × 3 shards + 1 push.
	const wantMsgs = 6*3 + 1
	if got := armed.Stream.Dwell.Count(); got != wantMsgs {
		t.Fatalf("dwell count %d, want %d", got, wantMsgs)
	}
	if got := armed.Stream.BurstMessages.Load(); got != wantMsgs {
		t.Fatalf("burst messages %d, want %d", got, wantMsgs)
	}
	bursts := armed.Stream.Bursts.Load()
	if bursts < 1 || bursts > wantMsgs {
		t.Fatalf("bursts %d out of range [1, %d]", bursts, wantMsgs)
	}
	if s := armed.Stream.Dwell.Snapshot(); s.SumNanos <= 0 {
		t.Fatalf("dwell sum %dns, want > 0", s.SumNanos)
	}

	// Without a sink the stream records nothing and must not care.
	run(nil)
}
