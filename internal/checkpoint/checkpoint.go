// Package checkpoint persists the streaming clustering state so a restarted
// server resumes with a warm clustering instead of re-clustering from
// scratch.
//
// A checkpoint is a Snapshot of a stream.Sharded ingester's exported state
// (per-shard retained centers, doubling radius and level, center-version
// counters, ingest counts, dataset dimension) plus identifying metadata (k,
// shard count, metric name, capture time). The state is O(shards·k)
// regardless of how many points were ingested — the whole point of the
// doubling sketch — so checkpoints are small and cheap to write at serving
// frequency.
//
// # On-disk format
//
// The file is self-describing and corruption-evident: a fixed binary header
// followed by a JSON payload.
//
//	offset  size  field
//	0       8     magic "KCENTCKP"
//	8       4     format version, uint32 little-endian (currently 1)
//	12      4     IEEE CRC-32 of the payload, uint32 little-endian
//	16      8     payload length in bytes, uint64 little-endian
//	24      n     payload: the Snapshot as JSON
//
// Readers verify magic, version, length and checksum before touching the
// payload, so a truncated, torn or bit-flipped file fails Read with a typed
// error (ErrCorrupt, or ErrFormatVersion for a version this build does not
// understand) instead of restoring garbage. The JSON payload keeps the
// format inspectable (`tail -c +25 file | jq .`) and extensible; the binary
// header keeps validation independent of JSON parsing.
//
// # Atomicity
//
// Write never exposes a partial checkpoint: it writes to a temporary file in
// the destination directory, fsyncs it, renames it over the destination and
// fsyncs the directory. A crash at any point leaves either the old complete
// checkpoint or the new complete checkpoint (plus, at worst, an orphaned
// temporary file that the next Write of the same path removes by pattern).
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"

	"kcenter/internal/fault"
	"kcenter/internal/obs"
	"kcenter/internal/stream"
)

// FormatVersion is the on-disk format version this build writes and the only
// one it reads. Bump it when the Snapshot schema changes incompatibly;
// readers of other versions fail with ErrFormatVersion rather than
// misinterpreting the payload.
const FormatVersion = 1

// magic identifies a kcenter checkpoint file.
var magic = [8]byte{'K', 'C', 'E', 'N', 'T', 'C', 'K', 'P'}

// headerLen is the fixed byte length of the binary header.
const headerLen = 8 + 4 + 4 + 8

// ErrCorrupt reports a checkpoint file that is not a complete, intact
// checkpoint: wrong magic, truncated header or payload, checksum mismatch,
// or a payload that does not decode. Detect it with errors.Is. A corrupt
// checkpoint is never partially restored.
var ErrCorrupt = errors.New("corrupt checkpoint")

// ErrFormatVersion reports a checkpoint written in a format version this
// build does not understand. The file may be perfectly intact — it is the
// reader that is too old (or too new). Detect it with errors.Is.
var ErrFormatVersion = errors.New("unsupported checkpoint format version")

// Snapshot is one complete, restorable checkpoint of a sharded streaming
// clustering, as serialized into the payload.
type Snapshot struct {
	// K is the center budget the state was produced under.
	K int `json:"k"`
	// Shards is the shard count of the exporting ingester; a restoring
	// ingester must match it.
	Shards int `json:"shards"`
	// Dim is the point dimensionality (0 if nothing was ingested).
	Dim int `json:"dim"`
	// Metric names the distance the clustering was built under (the
	// metric.Interface Name(), "euclidean" for the fast path). Restoring
	// under a different metric would silently corrupt the doubling
	// invariants, so readers must verify it.
	Metric string `json:"metric"`
	// CreatedUnixNano is the capture wall-clock time, for operator-facing
	// "resumed from a checkpoint taken N seconds ago" reporting.
	CreatedUnixNano int64 `json:"created_unix_nano"`
	// Ingested is the total point count across shards at capture time
	// (denormalized from State for cheap inspection).
	Ingested int64 `json:"ingested"`
	// CentersVersion is the summed center-set version counter at capture
	// time (denormalized from State, same as State.CentersVersion()).
	CentersVersion uint64 `json:"centers_version"`
	// State is the complete resumable per-shard state.
	State stream.ShardedState `json:"state"`
}

// Capture exports sh's live state as a Snapshot ready for Write. metricName
// names the distance the ingester was configured with ("euclidean" for nil).
func Capture(sh *stream.Sharded, metricName string) *Snapshot {
	st := sh.ExportState()
	if metricName == "" {
		metricName = "euclidean"
	}
	return &Snapshot{
		K:               st.K,
		Shards:          len(st.Shards),
		Dim:             st.Dim,
		Metric:          metricName,
		CreatedUnixNano: time.Now().UnixNano(),
		Ingested:        st.Ingested(),
		CentersVersion:  st.CentersVersion(),
		State:           *st,
	}
}

// Created returns the capture time.
func (s *Snapshot) Created() time.Time { return time.Unix(0, s.CreatedUnixNano) }

// Restore loads the snapshot into a freshly constructed ingester configured
// with metricName (pass the same value as Capture; "" means "euclidean").
// It verifies the metric and delegates the structural checks to
// stream.RestoreState, so failures wrap stream.ErrStateMismatch or
// stream.ErrStateInvalid and leave the ingester empty.
func (s *Snapshot) Restore(sh *stream.Sharded, metricName string) error {
	if metricName == "" {
		metricName = "euclidean"
	}
	if s.Metric != metricName {
		return fmt.Errorf("checkpoint: %w: checkpoint metric %q, ingester metric %q",
			stream.ErrStateMismatch, s.Metric, metricName)
	}
	if s.Shards != len(s.State.Shards) {
		return fmt.Errorf("checkpoint: %w: header says %d shards, state has %d",
			stream.ErrStateInvalid, s.Shards, len(s.State.Shards))
	}
	if s.K != s.State.K || s.Dim != s.State.Dim {
		return fmt.Errorf("checkpoint: %w: header (k=%d, dim=%d) disagrees with state (k=%d, dim=%d)",
			stream.ErrStateInvalid, s.K, s.Dim, s.State.K, s.State.Dim)
	}
	// The denormalized totals must agree with the state they summarize: the
	// server trusts them for its restored counters, and a disagreement means
	// the file was not produced by Capture.
	if s.Ingested != s.State.Ingested() || s.CentersVersion != s.State.CentersVersion() {
		return fmt.Errorf("checkpoint: %w: header (ingested=%d, version=%d) disagrees with state (ingested=%d, version=%d)",
			stream.ErrStateInvalid, s.Ingested, s.CentersVersion, s.State.Ingested(), s.State.CentersVersion())
	}
	return sh.RestoreState(&s.State)
}

// Encode serializes snap into its wire form: the fixed binary header
// followed by the JSON payload. The same bytes are what Write persists to
// disk and what the serving layer's /v1/replicate endpoint ships between
// nodes, so both paths share one framing, checksum and validation
// discipline; Decode is the inverse.
func Encode(snap *Snapshot) ([]byte, error) {
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	buf := make([]byte, headerLen+len(payload))
	copy(buf[:8], magic[:])
	binary.LittleEndian.PutUint32(buf[8:12], FormatVersion)
	binary.LittleEndian.PutUint32(buf[12:16], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(len(payload)))
	copy(buf[headerLen:], payload)
	return buf, nil
}

// Decode verifies and decodes one complete encoded snapshot: magic, format
// version, declared length (no truncation, no trailing bytes), checksum,
// then the JSON payload — in that order, so nothing of a damaged buffer is
// interpreted. Failures carry the same typed errors as Read: ErrCorrupt for
// damage, ErrFormatVersion for a version this build does not speak. A
// non-nil Snapshot is structurally decoded but not yet validated against any
// ingester; Restore (or stream.MergeState) performs those checks.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("checkpoint: %w: header truncated: %d bytes", ErrCorrupt, len(data))
	}
	if [8]byte(data[:8]) != magic {
		return nil, fmt.Errorf("checkpoint: %w: bad magic %q", ErrCorrupt, data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != FormatVersion {
		return nil, fmt.Errorf("checkpoint: %w: payload has version %d, this build reads %d",
			ErrFormatVersion, v, FormatVersion)
	}
	wantCRC := binary.LittleEndian.Uint32(data[12:16])
	payloadLen := binary.LittleEndian.Uint64(data[16:24])
	// An absurd length is corruption, not an allocation request.
	const maxPayload = 1 << 30
	if payloadLen > maxPayload {
		return nil, fmt.Errorf("checkpoint: %w: payload length %d exceeds %d", ErrCorrupt, payloadLen, maxPayload)
	}
	if uint64(len(data)-headerLen) < payloadLen {
		return nil, fmt.Errorf("checkpoint: %w: payload truncated: %d of %d bytes", ErrCorrupt, len(data)-headerLen, payloadLen)
	}
	// Trailing bytes mean the header lied about the length: treat the buffer
	// as damaged rather than silently ignoring what follows.
	if uint64(len(data)-headerLen) > payloadLen {
		return nil, fmt.Errorf("checkpoint: %w: trailing bytes after payload", ErrCorrupt)
	}
	payload := data[headerLen:]
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("checkpoint: %w: checksum %08x, want %08x", ErrCorrupt, got, wantCRC)
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("checkpoint: %w: payload does not decode: %v", ErrCorrupt, err)
	}
	return &snap, nil
}

// Write atomically persists snap to path: temp file in the same directory,
// fsync, rename over path, fsync the directory. On return the file at path
// is either the previous complete checkpoint (on error) or the new one (on
// nil); no reader can observe a partial write. faults is the caller's
// fault-injection switchboard and m its telemetry sink for write and fsync
// durations; either may be nil (no injection, nothing recorded).
func Write(path string, snap *Snapshot, faults *fault.Set, m *obs.CheckpointMetrics) (err error) {
	wstart := time.Now()
	buf, err := Encode(snap)
	if err != nil {
		return err
	}
	hdr, payload := buf[:headerLen], buf[headerLen:]

	dir := filepath.Dir(path)
	// Reap temp files a crashed predecessor left behind. Writes to one path
	// are not meant to race (the server serializes them), so anything with
	// the temp prefix is an orphan. (Prefix comparison, not a glob: the
	// checkpoint path may legitimately contain glob metacharacters.)
	if entries, err := os.ReadDir(dir); err == nil {
		prefix := filepath.Base(path) + ".tmp"
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), prefix) {
				_ = os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	if err = faults.Hit(fault.CheckpointCreate); err != nil {
		return fmt.Errorf("checkpoint: create in %s: %w", dir, err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(hdr); err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", tmp.Name(), err)
	}
	// The write fault fires between header and payload, so an injected
	// ENOSPC leaves the nastiest possible temp file: a valid-looking header
	// with a truncated payload. The deferred cleanup must still remove it
	// and the live checkpoint must stay untouched.
	if err = faults.Hit(fault.CheckpointWrite); err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", tmp.Name(), err)
	}
	if _, err = tmp.Write(payload); err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", tmp.Name(), err)
	}
	if err = faults.Hit(fault.CheckpointSync); err != nil {
		return fmt.Errorf("checkpoint: fsync %s: %w", tmp.Name(), err)
	}
	fstart := time.Now()
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("checkpoint: fsync %s: %w", tmp.Name(), err)
	}
	// The temp-file fsync dominates checkpoint latency on real disks; it
	// gets its own histogram alongside the whole-write one.
	if m != nil {
		m.Fsync.Observe(time.Since(fstart))
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmp.Name(), err)
	}
	if err = faults.Hit(fault.CheckpointRename); err != nil {
		return fmt.Errorf("checkpoint: rename %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Past the rename the new checkpoint is live; a dir-fsync failure is
	// reported (the rename's durability is not yet guaranteed) but the file
	// at path is already the new complete checkpoint.
	if err = faults.Hit(fault.CheckpointDirSync); err != nil {
		return fmt.Errorf("checkpoint: fsync dir %s: %w", dir, err)
	}
	// Persist the rename itself. Directory fsync is best-effort where the
	// platform refuses it (the rename is still atomic in the namespace).
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	if m != nil {
		m.Write.Observe(time.Since(wstart)) // successful writes only
	}
	return nil
}

// Rotate shifts the checkpoint history at path one slot down, so the next
// Write leaves the last keep checkpoints on disk as path.1 (newest) through
// path.keep (oldest) for operator rollback: path.keep is removed,
// path.i becomes path.(i+1), and the current file at path is duplicated
// (hard link where the filesystem allows, byte copy otherwise) as path.1.
// The live file at path is never moved or removed — a crash anywhere during
// rotation leaves it intact and restorable — so Rotate composes with
// Write's atomicity instead of weakening it. Callers serialize Rotate with
// Write the way they serialize Writes (the server holds its per-tenant
// checkpoint mutex across both). keep <= 0 is a no-op; a missing current
// file just shifts the existing history. faults is the caller's
// fault-injection switchboard (nil: no injection).
func Rotate(path string, keep int, faults *fault.Set) {
	if keep <= 0 {
		return
	}
	_ = os.Remove(fmt.Sprintf("%s.%d", path, keep))
	for i := keep - 1; i >= 1; i-- {
		// The rotate fault aborts mid-shift, simulating a crash between
		// history renames: slots may be left shifted unevenly, but every
		// surviving slot is still a complete checkpoint and the live file
		// was never touched.
		if faults.Hit(fault.CheckpointRotate) != nil {
			return
		}
		_ = os.Rename(fmt.Sprintf("%s.%d", path, i), fmt.Sprintf("%s.%d", path, i+1))
	}
	if faults.Hit(fault.CheckpointRotate) != nil {
		return
	}
	if _, err := os.Stat(path); err != nil {
		return
	}
	slot := path + ".1"
	if err := os.Link(path, slot); err == nil {
		return
	}
	// No hard links (or a stale slot survived the Remove/Rename shuffle):
	// fall back to a byte copy of the current checkpoint.
	if data, err := os.ReadFile(path); err == nil {
		_ = os.WriteFile(slot, data, 0o644)
	}
}

// Read loads and verifies the checkpoint at path. It returns an error
// wrapping fs.ErrNotExist when no checkpoint exists (a fresh start, not a
// failure — callers distinguish it with errors.Is), ErrCorrupt when the file
// is damaged or truncated, and ErrFormatVersion for an unknown format
// version. A non-nil Snapshot is structurally decoded but not yet validated
// against any ingester; Restore performs those checks.
func Read(path string) (*Snapshot, error) {
	// A checkpoint is O(shards·k·dim) bytes regardless of ingest volume, so
	// reading it whole and verifying through Decode — the same routine the
	// replication endpoint runs on wire payloads — keeps one validation
	// order for every consumer of the format. Decode's length check rejects
	// any file claiming an absurd payload before allocation matters.
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}
