package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint decoder. The
// contract under fuzzing: Decode either succeeds or fails with one of the
// typed errors (ErrCorrupt for anything mangled, ErrFormatVersion for an
// intact buffer of a foreign version) — it must never panic and never return
// an untyped error, because the serving layer's restore and replication
// paths dispatch on exactly these types to decide between quarantine and
// cold start.
//
// Read is os.ReadFile then Decode. Each seed goes through it once, from a
// file, and must get Decode's answer; the fuzzed inputs go to Decode
// directly. A file in a fresh t.TempDir per input held the target to a few
// hundred execs/s, with stretches of 0 execs/s.
func FuzzCheckpointDecode(f *testing.F) {
	// Seeds: a fully valid checkpoint produced by the real writer, plus
	// truncations and header mutations of it, plus raw junk.
	dir := f.TempDir()
	valid := filepath.Join(dir, "valid.ckpt")
	if err := Write(valid, &Snapshot{K: 2, Shards: 1, Dim: 2, Metric: "euclidean"}, nil, nil); err != nil {
		f.Fatal(err)
	}
	validBytes, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	mutated := append([]byte(nil), validBytes...)
	mutated[8] = 99 // foreign format version
	seeds := [][]byte{
		validBytes,
		validBytes[:len(validBytes)/2],
		validBytes[:headerLen],
		mutated,
		[]byte("KCENTCKP"),
		{},
		[]byte("not a checkpoint at all"),
	}
	for i, seed := range seeds {
		path := filepath.Join(dir, fmt.Sprintf("seed%d.ckpt", i))
		if err := os.WriteFile(path, seed, 0o644); err != nil {
			f.Fatal(err)
		}
		_, readErr := Read(path)
		_, decodeErr := Decode(seed)
		checkTyped(f, readErr, len(seed))
		if (readErr == nil) != (decodeErr == nil) || errors.Is(readErr, ErrCorrupt) != errors.Is(decodeErr, ErrCorrupt) {
			f.Fatalf("seed %d: Read returned %v, Decode %v", i, readErr, decodeErr)
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err == nil && snap == nil {
			t.Fatal("Decode returned nil snapshot with nil error")
		}
		checkTyped(t, err, len(data))
	})
}

// checkTyped fails tb unless err is nil or one of the typed errors.
func checkTyped(tb testing.TB, err error, n int) {
	tb.Helper()
	if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormatVersion) {
		tb.Fatalf("untyped error %v (%T) for %d bytes", err, err, n)
	}
}
