// Write-failure matrix: every injectable failure in the atomic Write
// sequence (temp creation, ENOSPC mid-write, fsync, rename, dir fsync) and
// a crash mid-rotation must leave the live checkpoint file and every
// retained rotation slot complete and readable — the property the serving
// layer's "last good checkpoint" recovery story rests on.

package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kcenter/internal/fault"
	"kcenter/internal/stream"
)

// writeGeneration ingests a fresh batch of points and writes a checkpoint,
// returning the snapshot written. Each call produces a distinct state so
// rotation slots are distinguishable.
func writeGeneration(t *testing.T, path string, gen int) *Snapshot {
	t.Helper()
	sh, err := stream.NewSharded(stream.ShardedConfig{K: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16*(gen+1); i++ {
		if err := sh.Push([]float64{float64(i), float64(gen)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sh.Finish(); err != nil {
		t.Fatal(err)
	}
	snap := Capture(sh, "")
	if err := Write(path, snap, nil, nil); err != nil {
		t.Fatalf("generation %d write: %v", gen, err)
	}
	return snap
}

// assertIntact reads the checkpoint at path and checks it matches want.
func assertIntact(t *testing.T, path string, want *Snapshot) {
	t.Helper()
	got, err := Read(path)
	if err != nil {
		t.Fatalf("checkpoint at %s unreadable: %v", path, err)
	}
	if got.CentersVersion != want.CentersVersion || got.Ingested != want.Ingested {
		t.Fatalf("checkpoint at %s: version=%d ingested=%d, want %d/%d",
			path, got.CentersVersion, got.Ingested, want.CentersVersion, want.Ingested)
	}
}

// noStrayTemps asserts Write's failure cleanup removed its temp file.
func noStrayTemps(t *testing.T, path string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Base(path) + ".tmp"
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			t.Fatalf("stray temp file %s after failed write", e.Name())
		}
	}
}

func TestWriteFailureMatrix(t *testing.T) {
	points := []string{
		fault.CheckpointCreate,
		fault.CheckpointWrite,
		fault.CheckpointSync,
		fault.CheckpointRename,
	}
	for _, pt := range points {
		t.Run(pt, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.ckpt")
			good := writeGeneration(t, path, 0)

			faults := new(fault.Set)
			if err := faults.Arm(map[string]fault.Rule{pt: {Mode: fault.ModeError}}); err != nil {
				t.Fatal(err)
			}
			err := writeNewGeneration(path, faults)
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("faulted Write returned %v, want ErrInjected", err)
			}
			assertIntact(t, path, good)
			noStrayTemps(t, path)

			// Without faults, the very next write must succeed and replace
			// the live file atomically.
			next := writeGeneration(t, path, 2)
			assertIntact(t, path, next)
		})
	}
}

// writeNewGeneration attempts one checkpoint write of a fresh state under
// faults, returning Write's error.
func writeNewGeneration(path string, faults *fault.Set) error {
	sh, err := stream.NewSharded(stream.ShardedConfig{K: 4, Shards: 2})
	if err != nil {
		return err
	}
	for i := 0; i < 48; i++ {
		if err := sh.Push([]float64{float64(i) * 3, 7}); err != nil {
			return err
		}
	}
	if _, err := sh.Finish(); err != nil {
		return err
	}
	return Write(path, Capture(sh, ""), faults, nil)
}

// TestDirSyncFailureLeavesNewCheckpointLive: the dir-fsync fault fires after
// the rename, so Write errors but the file at path is already the NEW
// complete checkpoint — an error from Write never implies the old file is
// still current, only that whatever is at path is complete.
func TestDirSyncFailureLeavesNewCheckpointLive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	writeGeneration(t, path, 0)

	faults := new(fault.Set)
	if err := faults.Arm(map[string]fault.Rule{fault.CheckpointDirSync: {Mode: fault.ModeError}}); err != nil {
		t.Fatal(err)
	}
	if err := writeNewGeneration(path, faults); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("faulted Write returned %v, want ErrInjected", err)
	}
	if _, err := Read(path); err != nil {
		t.Fatalf("live checkpoint unreadable after dir-fsync failure: %v", err)
	}
}

// TestRotationAbortMatrix aborts Rotate at each shift step and checks the
// live file is untouched and every surviving history slot still reads as a
// complete checkpoint.
func TestRotationAbortMatrix(t *testing.T) {
	const keep = 3
	for abortAt := int64(0); abortAt < keep; abortAt++ {
		t.Run(fmt.Sprintf("abort-step-%d", abortAt), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.ckpt")
			// Build a full history: live + .1..keep, each a distinct complete
			// checkpoint.
			var live *Snapshot
			for gen := 0; gen <= keep; gen++ {
				Rotate(path, keep, nil)
				live = writeGeneration(t, path, gen)
			}
			faults := new(fault.Set)
			if err := faults.Arm(map[string]fault.Rule{
				fault.CheckpointRotate: {Mode: fault.ModeError, After: abortAt},
			}); err != nil {
				t.Fatal(err)
			}
			Rotate(path, keep, faults)

			assertIntact(t, path, live)
			for i := 1; i <= keep; i++ {
				slot := fmt.Sprintf("%s.%d", path, i)
				if _, err := os.Stat(slot); errors.Is(err, os.ErrNotExist) {
					continue // a gap from the abort is fine; a torn file is not
				}
				if _, err := Read(slot); err != nil {
					t.Fatalf("history slot %s corrupt after aborted rotation: %v", slot, err)
				}
			}
		})
	}
}
