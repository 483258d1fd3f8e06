package checkpoint

import (
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kcenter/internal/stream"
)

// buildIngester returns a drained sharded ingester with a non-trivial
// clustering (several doubling rounds) plus the points it ingested.
func buildIngester(t *testing.T, k, shards, n int) *stream.Sharded {
	t.Helper()
	sh, err := stream.NewSharded(stream.ShardedConfig{K: k, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := []float64{float64((i * 37) % 1000), float64((i * 91) % 1000)}
		if err := sh.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got int64
		for _, s := range sh.PerShardStats() {
			got += s.Ingested
		}
		if got == int64(n) {
			return sh
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingester drained %d of %d points", got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	sh := buildIngester(t, 8, 3, 4000)
	snap := Capture(sh, "")
	if snap.Metric != "euclidean" {
		t.Fatalf("metric: %q", snap.Metric)
	}
	if snap.Ingested != 4000 || snap.K != 8 || snap.Shards != 3 || snap.Dim != 2 {
		t.Fatalf("snapshot meta: %+v", snap)
	}
	if snap.CentersVersion != sh.CentersVersion() {
		t.Fatalf("captured version %d, live %d", snap.CentersVersion, sh.CentersVersion())
	}

	path := filepath.Join(t.TempDir(), "ck")
	if err := Write(path, snap, nil, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ingested != snap.Ingested || got.CentersVersion != snap.CentersVersion ||
		got.CreatedUnixNano != snap.CreatedUnixNano || len(got.State.Shards) != len(snap.State.Shards) {
		t.Fatalf("roundtrip meta: %+v vs %+v", got, snap)
	}
	for i := range snap.State.Shards {
		a, b := snap.State.Shards[i], got.State.Shards[i]
		if a.R != b.R || a.N != b.N || a.Merges != b.Merges || a.Version != b.Version ||
			len(a.Centers) != len(b.Centers) {
			t.Fatalf("shard %d: %+v vs %+v", i, b, a)
		}
		for j := range a.Centers {
			for d := range a.Centers[j] {
				if a.Centers[j][d] != b.Centers[j][d] {
					t.Fatalf("shard %d center %d dim %d: %v vs %v",
						i, j, d, b.Centers[j][d], a.Centers[j][d])
				}
			}
		}
	}

	// Restore into a matching fresh ingester succeeds; into mismatched ones,
	// fails typed.
	fresh, err := stream.NewSharded(stream.ShardedConfig{K: 8, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Restore(fresh, ""); err != nil {
		t.Fatal(err)
	}
	if fresh.CentersVersion() != sh.CentersVersion() {
		t.Fatalf("restored version %d, want %d", fresh.CentersVersion(), sh.CentersVersion())
	}
	wrongK, _ := stream.NewSharded(stream.ShardedConfig{K: 9, Shards: 3})
	if err := got.Restore(wrongK, ""); !errors.Is(err, stream.ErrStateMismatch) {
		t.Fatalf("k mismatch: %v", err)
	}
	wrongMetric, _ := stream.NewSharded(stream.ShardedConfig{K: 8, Shards: 3})
	if err := got.Restore(wrongMetric, "manhattan"); !errors.Is(err, stream.ErrStateMismatch) {
		t.Fatalf("metric mismatch: %v", err)
	}
	lying := *got
	lying.Ingested++ // denormalized header disagrees with the state
	fresh2, _ := stream.NewSharded(stream.ShardedConfig{K: 8, Shards: 3})
	if err := lying.Restore(fresh2, ""); !errors.Is(err, stream.ErrStateInvalid) {
		t.Fatalf("header/state disagreement: %v", err)
	}

	// No temp files are left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestWriteReplacesAtomically(t *testing.T) {
	sh := buildIngester(t, 4, 2, 1000)
	path := filepath.Join(t.TempDir(), "ck")
	// An orphaned temp file from a "crashed" predecessor is reaped by the
	// next Write of the same path.
	orphan := path + ".tmp12345"
	if err := os.WriteFile(orphan, []byte("partial"), 0o600); err != nil {
		t.Fatal(err)
	}
	first := Capture(sh, "")
	if err := Write(path, first, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("orphaned temp file survived Write: %v", err)
	}
	for i := 0; i < 1000; i++ {
		if err := sh.Push([]float64{float64(i) * 3.7, float64(i) * 9.1}); err != nil {
			t.Fatal(err)
		}
	}
	second := Capture(sh, "")
	if err := Write(path, second, nil, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ingested < first.Ingested {
		t.Fatalf("second write not visible: ingested %d < %d", got.Ingested, first.Ingested)
	}
}

func TestReadMissing(t *testing.T) {
	_, err := Read(filepath.Join(t.TempDir(), "nope"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}

func TestReadCorruptionPaths(t *testing.T) {
	sh := buildIngester(t, 6, 2, 2000)
	dir := t.TempDir()
	path := filepath.Join(dir, "ck")
	if err := Write(path, Capture(sh, ""), nil, nil); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte, want error) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := Read(p)
		if !errors.Is(err, want) {
			t.Fatalf("%s: got %v, want %v", name, err, want)
		}
		if snap != nil {
			t.Fatalf("%s: corrupt read returned a snapshot", name)
		}
	}

	check("empty", nil, ErrCorrupt)
	check("truncated-header", good[:10], ErrCorrupt)
	check("truncated-payload", good[:len(good)-7], ErrCorrupt)
	check("header-only", good[:headerLen], ErrCorrupt)

	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xFF
	check("bad-magic", badMagic, ErrCorrupt)

	future := append([]byte(nil), good...)
	future[8] = 99 // format version field
	check("future-version", future, ErrFormatVersion)

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 0x01 // payload bit flip
	check("payload-bit-flip", flipped, ErrCorrupt)

	trailing := append(append([]byte(nil), good...), 'x')
	check("trailing-bytes", trailing, ErrCorrupt)

	// A CRC that matches garbage JSON still fails at decode: corrupt, not a
	// panic. Build it by re-checksumming a mangled payload.
	mangled := append([]byte(nil), good...)
	copy(mangled[headerLen:], "{{{{")
	rechecksum(mangled)
	check("valid-crc-bad-json", mangled, ErrCorrupt)
}

// rechecksum rewrites the header CRC to match the (possibly mangled)
// payload, so decode-level corruption is reachable past the checksum.
func rechecksum(file []byte) {
	payload := file[headerLen:]
	crc := crc32.ChecksumIEEE(payload)
	file[12] = byte(crc)
	file[13] = byte(crc >> 8)
	file[14] = byte(crc >> 16)
	file[15] = byte(crc >> 24)
}
