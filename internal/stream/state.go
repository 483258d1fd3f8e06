// State export and restore: the serialization boundary of the streaming
// layer. ExportState captures everything the doubling algorithm needs to
// resume — retained centers, radius, doubling level, version and ingest
// counters — and RestoreState rebuilds a summary (including its derived
// center-center distance matrix, through the same kernels, so the restored
// sketch is bit-identical to the exported one). internal/checkpoint gives
// these states a durable on-disk form.

package stream

import (
	"errors"
	"fmt"
	"math"

	"kcenter/internal/metric"
)

// ErrStateMismatch reports a RestoreState whose saved state does not fit the
// receiving ingester (different k, shard count, or inconsistent dimensions).
// Callers detect it with errors.Is; the wrapping message names the field.
var ErrStateMismatch = errors.New("state does not match ingester configuration")

// ErrStateInvalid reports a saved state that is internally inconsistent
// (non-finite coordinates, counters that cannot have been produced by a
// Summary, centers violating the doubling invariants). Restoring such a
// state is refused outright rather than risking serving a corrupt
// clustering.
var ErrStateInvalid = errors.New("invalid stream state")

// SummaryState is the complete resumable state of one Summary: the retained
// center coordinates plus the scalar counters of the doubling algorithm. The
// derived center-center distance matrix is deliberately absent — it is
// recomputed on restore through the same kernels that maintained it, so it
// cannot drift from the centers it describes.
type SummaryState struct {
	// Centers holds the retained center coordinates, one row per center,
	// in retention order (order matters: mergeDown keeps earlier-retained
	// centers, so a permuted restore would diverge from the original).
	Centers [][]float64 `json:"centers"`
	// R is the doubling radius (0 during the fill phase).
	R float64 `json:"r"`
	// N is the number of points the summary has ingested.
	N int64 `json:"n"`
	// Merges is the doubling level: how many doubling rounds have run.
	Merges int `json:"merges"`
	// Version is the center-set version counter (see Summary.Version).
	Version uint64 `json:"version"`
}

// ShardedState is the complete resumable state of a Sharded ingester. It is
// a value type with no references into the live ingester; mutating it after
// export (or restore) affects nothing.
type ShardedState struct {
	// K is the per-shard center budget the state was produced under.
	K int `json:"k"`
	// Dim is the point dimensionality (0 when nothing was ingested).
	Dim int `json:"dim"`
	// Next is the round-robin routing cursor (total Push calls routed).
	// Restoring it makes the shard each future point lands on identical to
	// the shard it would have landed on had the exporting ingester kept
	// running — without it the per-shard states would diverge even though
	// every point is still clustered.
	Next uint64 `json:"next"`
	// Shards holds one SummaryState per shard, indexed by shard.
	Shards []SummaryState `json:"shards"`
}

// Ingested returns the total number of points the state has seen across
// shards.
func (st *ShardedState) Ingested() int64 {
	var n int64
	for i := range st.Shards {
		n += st.Shards[i].N
	}
	return n
}

// CentersVersion returns the summed center-set version counter of the state,
// matching what Sharded.CentersVersion reported when the state was captured.
func (st *ShardedState) CentersVersion() uint64 {
	var v uint64
	for i := range st.Shards {
		v += st.Shards[i].Version
	}
	return v
}

// ExportState captures the summary's resumable state. The returned value
// shares no storage with the Summary.
func (s *Summary) ExportState() SummaryState {
	st := SummaryState{
		R:       s.r,
		N:       s.n,
		Merges:  s.merges,
		Version: s.version,
	}
	if s.centers != nil {
		st.Centers = make([][]float64, s.centers.N)
		for i := range st.Centers {
			st.Centers[i] = append([]float64(nil), s.centers.At(i)...)
		}
	}
	return st
}

// validateSummaryState checks st for internal consistency against a k-center
// budget and an expected dimension (dim 0 = any). It returns an error
// wrapping ErrStateInvalid naming the first violation.
func validateSummaryState(st SummaryState, k, dim int) error {
	if len(st.Centers) > k {
		return fmt.Errorf("stream: %w: %d centers exceed k=%d", ErrStateInvalid, len(st.Centers), k)
	}
	if st.R < 0 || math.IsNaN(st.R) || math.IsInf(st.R, 0) {
		return fmt.Errorf("stream: %w: radius %v", ErrStateInvalid, st.R)
	}
	if st.N < int64(len(st.Centers)) {
		return fmt.Errorf("stream: %w: %d ingested points cannot retain %d centers", ErrStateInvalid, st.N, len(st.Centers))
	}
	if st.Merges < 0 {
		return fmt.Errorf("stream: %w: negative doubling level %d", ErrStateInvalid, st.Merges)
	}
	if st.Version < uint64(len(st.Centers)) {
		return fmt.Errorf("stream: %w: version %d below center count %d", ErrStateInvalid, st.Version, len(st.Centers))
	}
	if len(st.Centers) > 0 && st.R > 0 && st.Merges == 0 {
		return fmt.Errorf("stream: %w: positive radius %v at doubling level 0", ErrStateInvalid, st.R)
	}
	for i, c := range st.Centers {
		if len(c) == 0 {
			return fmt.Errorf("stream: %w: center %d is empty", ErrStateInvalid, i)
		}
		if dim == 0 {
			dim = len(c)
		}
		if len(c) != dim {
			return fmt.Errorf("stream: %w: center %d has dimension %d, want %d", ErrStateInvalid, i, len(c), dim)
		}
		for _, v := range c {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("stream: %w: center %d has a non-finite coordinate", ErrStateInvalid, i)
			}
		}
	}
	return nil
}

// restoreState loads st into the (freshly constructed, never pushed-to)
// summary, rebuilding the center-center distance matrix with the same
// kernels Push maintains it with, so every derived value is bit-identical
// to the exported original. dim pins the expected dimensionality (0 = take
// it from the state).
func (s *Summary) restoreState(st SummaryState, dim int) error {
	if err := validateSummaryState(st, s.k, dim); err != nil {
		return err
	}
	s.r = st.R
	s.n = st.N
	s.merges = st.Merges
	s.version = st.Version
	s.centers = nil
	s.cc = nil
	s.sweep, s.sweepFresh = nil, false
	if len(st.Centers) == 0 {
		return nil
	}
	s.centers = metric.NewDataset(0, len(st.Centers[0]))
	s.cc = make([]float64, (s.k+1)*(s.k+1))
	for _, c := range st.Centers {
		// appendCenter is the exact routine Push maintains the matrix with,
		// which is what makes the rebuilt matrix bit-identical; it bumps the
		// version per append, so restore the saved counter afterwards.
		s.appendCenter(c)
	}
	s.version = st.Version
	// Doubling invariant (I2): retained centers are pairwise more than 2r
	// apart (with r = 0 during the fill phase this degenerates to "centers
	// are distinct"). A state violating it was not produced by this
	// algorithm, and pushing through it would silently lose coverage
	// guarantees — refuse instead.
	for i := 0; i < s.centers.N; i++ {
		for j := i + 1; j < s.centers.N; j++ {
			if s.ccDist(i, j) <= 2*s.r {
				return fmt.Errorf("stream: %w: centers %d and %d are %v apart, at most the doubling separation %v",
					ErrStateInvalid, i, j, s.ccDist(i, j), 2*s.r)
			}
		}
	}
	return nil
}

// ExportState captures the resumable state of every shard, each read under
// its shard lock, so the per-shard states are internally consistent (the
// cross-shard view has the same "approximately aligned" semantics as
// Snapshot). Points still buffered in shard channels are not captured; a
// checkpoint taken after a drain (as the serving layer's graceful shutdown
// does) captures everything.
func (s *Sharded) ExportState() *ShardedState {
	st := &ShardedState{
		K:      s.cfg.K,
		Dim:    int(s.dim.Load()),
		Next:   s.next.Load(),
		Shards: make([]SummaryState, len(s.summaries)),
	}
	for i, sum := range s.summaries {
		s.sumLocks[i].RLock()
		st.Shards[i] = sum.ExportState()
		s.sumLocks[i].RUnlock()
	}
	return st
}

// RestoreState loads a previously exported state into a freshly constructed
// ingester, after which ingestion resumes the doubling algorithm exactly
// where the exported ingester left off: same retained centers, radii,
// doubling levels and version counters, and — because the rebuilt distance
// matrices are bit-identical — the same future decisions on the same future
// points. The receiving ingester must have the same K and shard count the
// state was exported under and must not have ingested anything yet;
// violations return an error wrapping ErrStateMismatch. States that are
// internally inconsistent return an error wrapping ErrStateInvalid. Both
// leave the ingester empty and usable. The configured metric must match the
// exporting ingester's; coordinates carry no record of the metric, so this
// cannot be checked here (the checkpoint layer stores and verifies it).
func (s *Sharded) RestoreState(st *ShardedState) error {
	if st == nil {
		return fmt.Errorf("stream: %w: nil state", ErrStateInvalid)
	}
	if st.K != s.cfg.K {
		return fmt.Errorf("stream: %w: state k=%d, ingester k=%d", ErrStateMismatch, st.K, s.cfg.K)
	}
	if len(st.Shards) != len(s.summaries) {
		return fmt.Errorf("stream: %w: state has %d shards, ingester has %d", ErrStateMismatch, len(st.Shards), len(s.summaries))
	}
	if st.Dim < 0 {
		return fmt.Errorf("stream: %w: negative dimension %d", ErrStateInvalid, st.Dim)
	}
	for i := range st.Shards {
		if st.Dim == 0 && len(st.Shards[i].Centers) > 0 {
			return fmt.Errorf("stream: %w: shard %d has centers but the state has dimension 0", ErrStateInvalid, i)
		}
		if err := validateSummaryState(st.Shards[i], st.K, st.Dim); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if s.finished.Load() {
		return fmt.Errorf("stream: %w: ingester already finished", ErrStateMismatch)
	}
	if s.next.Load() != 0 {
		return fmt.Errorf("stream: %w: ingester has already ingested points", ErrStateMismatch)
	}
	for i := range st.Shards {
		s.sumLocks[i].Lock()
		if s.summaries[i].N() != 0 {
			s.sumLocks[i].Unlock()
			return fmt.Errorf("stream: %w: shard %d has already ingested points", ErrStateMismatch, i)
		}
		err := s.summaries[i].restoreState(st.Shards[i], st.Dim)
		s.sumLocks[i].Unlock()
		if err != nil {
			// Earlier shards are already restored, and the failing shard may
			// have been mutated before its distance-level checks (the I2
			// separation test needs the rebuilt matrix) rejected it; reset
			// every touched shard so a failed restore leaves the ingester
			// empty, not half-loaded.
			for j := 0; j <= i; j++ {
				s.sumLocks[j].Lock()
				s.summaries[j] = NewSummary(s.cfg.K, Options{Metric: s.cfg.Metric})
				s.sumLocks[j].Unlock()
			}
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if st.Dim > 0 {
		s.dim.Store(int64(st.Dim))
	}
	s.next.Store(st.Next)
	return nil
}
