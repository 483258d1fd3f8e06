package harness

import (
	"bytes"
	"strings"
	"testing"

	"kcenter/internal/dataset"
)

// TestRunChaos drives the full chaos sequence at small scale: RunChaos
// enforces all four robustness assertions internally, so a nil error IS the
// test — plus sanity on the reported measurement.
func TestRunChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes a few seconds")
	}
	ds := dataset.Gau(dataset.GauConfig{N: 20_000, KPrime: 10, Seed: 99}).Points
	m, err := RunChaos(ds, ChaosSpec{K: 10, Shards: 4, Batch: 128, QuietAssigns: 100, PanicAfter: 16})
	if err != nil {
		t.Fatal(err)
	}
	if m.VictimAccepted <= 0 || m.VictimDropped <= 0 {
		t.Fatalf("storm did not bite: accepted=%d dropped=%d", m.VictimAccepted, m.VictimDropped)
	}
	if m.VictimAccepted != m.VictimSummarized+m.VictimDropped {
		t.Fatalf("accounting identity broken in measurement: %d != %d + %d",
			m.VictimAccepted, m.VictimSummarized, m.VictimDropped)
	}
	if m.CheckpointErrors == 0 {
		t.Fatal("no checkpoint write failure was recorded")
	}
	if m.RestoredIngested == 0 {
		t.Fatal("restart restored nothing")
	}
}

// TestChaosExperimentRegistered: the experiment is in the registry and its
// Run completes at reduced scale, printing the assertion summary.
func TestChaosExperimentRegistered(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes a few seconds")
	}
	e, ok := ByID("chaos")
	if !ok {
		t.Fatal("chaos experiment not registered")
	}
	var buf bytes.Buffer
	if err := e.Run(RunConfig{Scale: 10, Seed: 7}, &buf); err != nil {
		t.Fatalf("chaos experiment: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "all four chaos assertions passed") {
		t.Fatalf("missing assertion summary:\n%s", buf.String())
	}
}

// TestRunChaosCountsNudges: with a single quiet probe the storm's feed stops
// before the armed shard panic fires, so the degrade-wait nudges are what
// push the victim over. Their 202s must reach the same client-side tally as
// the feed's, or assertion 3 reports a lying response.
func TestRunChaosCountsNudges(t *testing.T) {
	ds := dataset.Gau(dataset.GauConfig{N: 20_000, KPrime: 10, Seed: 99}).Points
	if _, err := RunChaos(ds, ChaosSpec{K: 10, Shards: 4, Batch: 128, QuietAssigns: 1, PanicAfter: 64}); err != nil {
		t.Fatal(err)
	}
}
