package checkpoint

import (
	"path/filepath"
	"testing"

	"kcenter/internal/obs"
)

// TestWriteObservesDurations pins the telemetry in the write path: with a
// sink a successful Write records exactly one sample into each of its write
// and fsync histograms, and a Write without one (nil) still succeeds and
// leaves other sinks alone.
func TestWriteObservesDurations(t *testing.T) {
	sh := buildIngester(t, 5, 2, 500)
	snap := Capture(sh, "")
	dir := t.TempDir()

	var m obs.CheckpointMetrics
	if err := Write(filepath.Join(dir, "armed.ckpt"), snap, nil, &m); err != nil {
		t.Fatal(err)
	}
	if n := m.Write.Count(); n != 1 {
		t.Fatalf("write histogram count %d, want 1", n)
	}
	if n := m.Fsync.Count(); n != 1 {
		t.Fatalf("fsync histogram count %d, want 1", n)
	}

	if err := Write(filepath.Join(dir, "disarmed.ckpt"), snap, nil, nil); err != nil {
		t.Fatal(err)
	}
	if m.Write.Count() != 1 || m.Fsync.Count() != 1 {
		t.Fatal("sink-less Write recorded into another Write's sink")
	}
}
