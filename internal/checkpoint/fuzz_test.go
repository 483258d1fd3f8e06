package checkpoint

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint reader. The
// contract under fuzzing: Read either succeeds or fails with one of the
// typed errors (ErrCorrupt for anything mangled, ErrFormatVersion for an
// intact file of a foreign version) — it must never panic and never return
// an untyped error, because the serving layer's restore path dispatches on
// exactly these types to decide between quarantine and cold start.
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
	f.Add(validBytes)
	f.Add(validBytes[:len(validBytes)/2])
	f.Add(validBytes[:headerLen])
	mutated := append([]byte(nil), validBytes...)
	mutated[8] = 99 // foreign format version
	f.Add(mutated)
	f.Add([]byte("KCENTCKP"))
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := Read(path)
		switch {
		case err == nil:
			if snap == nil {
				t.Fatal("Read returned nil snapshot with nil error")
			}
		case errors.Is(err, ErrCorrupt), errors.Is(err, ErrFormatVersion), errors.Is(err, fs.ErrNotExist):
			// The typed contract.
		default:
			t.Fatalf("Read returned untyped error %v (%T) for %d bytes", err, err, len(data))
		}
	})
}
