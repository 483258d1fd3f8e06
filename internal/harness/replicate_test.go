package harness

import (
	"math"
	"runtime"
	"testing"
	"time"

	"kcenter/internal/dataset"
)

// TestRunServeReplicateErrorStopsGoroutines: a NaN past the first batch
// fails the leader's ingest after the staleness sampler and the assign
// clients have started; the error return must stop and join them.
func TestRunServeReplicateErrorStopsGoroutines(t *testing.T) {
	ds := dataset.Gau(dataset.GauConfig{N: 2000, KPrime: 5, Seed: 3}).Points
	ds.At(1000)[0] = math.NaN()
	before := runtime.NumGoroutine()
	if _, err := RunServeReplicate(ds, ReplicateSpec{K: 5, Shards: 2, Clients: 2, Batch: 200}); err == nil {
		t.Fatal("RunServeReplicate accepted a NaN coordinate")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running 2s after the error return (%d before the call)",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
