// Per-tenant machinery. A tenant is one independent clustering multiplexed
// over the service: its own sharded ingester, bounded ingest queue and
// worker, pinned shape (k, shards, dimension), snapshot cache, counters and
// checkpoint state. The default tenant — the one requests without a tenant
// header hit — is embedded directly in Service, so the single-tenant wire
// format and internals are exactly the multi-tenant ones with one tenant.

package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sync"
	"sync/atomic"

	"kcenter/internal/checkpoint"
	"kcenter/internal/fault"
	"kcenter/internal/metric"
	"kcenter/internal/obs"
	"kcenter/internal/stream"
)

// DefaultTenant is the tenant requests without a routing header hit. It
// always exists; its shape is the service Config's K and Shards, and its
// checkpoint file is Config.CheckpointPath itself — so a single-tenant
// deployment never sees tenant machinery on the wire or on disk.
const DefaultTenant = "default"

// ErrTenantFailed marks a quarantined tenant, in either of two forms.
// Born-failed: its checkpoint failed to restore at startup, so the tenant
// holds no ingester and refuses all traffic (HTTP 409) while every other
// tenant serves normally; the wrapped cause is the typed restore error
// (checkpoint.ErrCorrupt, checkpoint.ErrFormatVersion,
// stream.ErrStateInvalid, ...). Degraded: a panic in the tenant's ingest
// worker or one of its shard goroutines was contained at runtime; the
// wrapped cause carries the panic value. A degraded tenant keeps serving
// reads from its last good cached snapshot but rejects ingest (409) and
// never writes another checkpoint, so the last good on-disk state survives
// for the restart. Detect either form with errors.Is.
var ErrTenantFailed = errors.New("tenant failed")

// errUnknownTenant reports a query for a tenant that does not exist; the
// handler maps it to HTTP 404.
var errUnknownTenant = errors.New("unknown tenant")

// errTenantCap reports a lazy tenant creation refused at the MaxTenants
// cap; the handler maps it to HTTP 429.
var errTenantCap = errors.New("tenant cap reached")

// errTenantConflict reports shape headers (or a lazily found checkpoint)
// disagreeing with a tenant's pinned k/shards; the handler maps it to
// HTTP 409.
var errTenantConflict = errors.New("tenant shape conflict")

// tenant is one isolated clustering: the unit the registry multiplexes.
// All fields follow the same concurrency discipline they had when the
// service was single-tenant (the default tenant IS this struct, embedded
// in Service).
type tenant struct {
	name      string
	k, shards int
	svc       *Service
	sh        *stream.Sharded
	// ckptPath is this tenant's checkpoint file ("" when persistence is
	// off): Config.CheckpointPath for the default tenant,
	// <CheckpointPath>.d/<name>.ckpt for every other.
	ckptPath string
	created  time.Time

	// queue carries validated ingest batches to this tenant's worker. qmu
	// makes the service-closed check and the channel send atomic with
	// respect to Close closing the channel (same pattern as
	// stream.Sharded.Push); the service-wide done channel wakes handlers
	// blocked on a full queue so Close never waits on them.
	queue chan *pointBatch
	qmu   sync.RWMutex
	// pushRows holds the row views over the current batch's slab that the
	// ingest worker hands to PushBatch (which copies them out); only the
	// worker touches it.
	pushRows [][]float64

	dim atomic.Int64 // first-seen point dimensionality; 0 = none yet

	// metrics is this tenant's telemetry set: per-route request/stage
	// latency histograms (fed by the handler traces and the ingest worker)
	// plus the stream shard metrics its ingester records into. nil when
	// the Service runs without Telemetry, and for quarantined tenants.
	metrics *obs.TenantMetrics

	// Counters, reported by /v1/stats and /metrics.
	acceptedPoints  atomic.Int64 // points validated and queued
	acceptedBatches atomic.Int64
	pendingBatches  atomic.Int64 // queued but not yet pushed
	ingestedPoints  atomic.Int64 // points handed to the sharded ingester
	assignRequests  atomic.Int64
	assignPoints    atomic.Int64
	distEvals       atomic.Int64 // assignment distance evaluations
	snapshotBuilds  atomic.Int64
	shedBatches     atomic.Int64 // batches rejected with 429 at the queue watermark
	shedPoints      atomic.Int64

	// Checkpoint state: writes are serialized by ckptMu; lastCkptVersion
	// remembers the center-set version of the last persisted snapshot so
	// periodic sweeps skip writing when nothing changed (ckptEver
	// distinguishes "never written" from "written at version 0").
	ckptMu          sync.Mutex
	ckptEver        atomic.Bool
	lastCkptVersion atomic.Uint64
	ckptWrites      atomic.Int64
	ckptErrors      atomic.Int64
	lastCkptUnix    atomic.Int64
	restored        *RestoreSummary // nil on a cold start
	// ckptWriteFailed (guarded by ckptMu) suppresses rotation while the
	// last write attempt failed: retrying ticks must not keep shifting the
	// rollback slots — each shift would replace the oldest genuine
	// checkpoint with another copy of the unchanged live file, destroying
	// the history exactly during the outage an operator needs it for.
	ckptWriteFailed bool
	// ckptFailStreak / ckptRetryAt (guarded by ckptMu) are the background
	// loop's backoff state: consecutive write failures grow the retry gap
	// exponentially (capped, jittered — see ckptBackoff) instead of
	// hammering a failing disk at full CheckpointInterval cadence.
	ckptFailStreak int
	ckptRetryAt    time.Time
	// lastCkptErrMsg is the most recent write failure, surfaced as
	// last_checkpoint_error in /v1/stats and cleared ("") on success.
	lastCkptErrMsg atomic.Value // string

	// degraded is the runtime quarantine record: set (once, monotonically)
	// when a panic in this tenant's ingest worker or shard goroutines was
	// contained. Distinct from failed: a degraded tenant still owns its
	// ingester and last good snapshot and keeps serving reads.
	degraded atomic.Pointer[degradedInfo]
	// droppedPoints counts points from queued batches discarded after the
	// tenant degraded (the shard-level drops live in sh.DroppedPoints()).
	droppedPoints atomic.Int64

	// failed quarantines the tenant: its checkpoint did not restore, so it
	// holds no ingester or queue and refuses traffic. The error wraps
	// ErrTenantFailed plus the typed restore cause. Only tenants restored
	// from the checkpoint directory can be born failed; it never changes
	// after construction.
	failed error

	// Replication receive state (guarded by repMu): per-origin fold
	// accounting behind the /v1/stats replication block — how many folds
	// each peer's pushes applied vs were rejected, and when the last
	// accepted state arrived (the staleness clock). The folded states
	// themselves live in the ingester's per-origin slots (stream.MergeState).
	repMu   sync.Mutex
	repRecv map[string]*originRecv

	// Snapshot cache: one entry, keyed by this tenant's merged center
	// version (MergedVersion: local center changes plus remote folds).
	// Readers hit the atomic pointer lock-free; snapMu serializes rebuilds
	// only, so a center change triggers exactly one merge per tenant, not
	// a thundering herd.
	snapMu sync.Mutex
	snap   atomic.Pointer[querySnapshot]
}

// validTenantName reports whether name is a legal tenant name: 1–64
// characters from [A-Za-z0-9._-], not starting with a dot or dash. The
// charset is what keeps <name>.ckpt a safe file name inside the checkpoint
// directory.
func validTenantName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// tenantCheckpointPath maps a tenant to its checkpoint file: the base path
// for the default tenant, <base>.d/<name>.ckpt for every other — so
// per-tenant checkpoints compose as independent files an operator can
// inspect, back up or delete one tenant at a time.
func tenantCheckpointPath(base, name string) string {
	if name == DefaultTenant {
		return base
	}
	return filepath.Join(base+".d", name+".ckpt")
}

// newTenant builds a tenant's machinery (ingester, queue) without
// registering or starting it; the caller registers it under s.tmu and
// starts the worker with startTenant.
func (s *Service) newTenant(name string, k, shards int) (*tenant, error) {
	if k <= 0 {
		k = s.cfg.DefaultK
	}
	if shards <= 0 {
		shards = s.cfg.Shards
	}
	cfg := stream.ShardedConfig{
		K:      k,
		Shards: shards,
		Buffer: s.cfg.Buffer,
		Origin: s.cfg.NodeID,
		Faults: s.cfg.Faults,
	}
	var metrics *obs.TenantMetrics
	if s.cfg.Telemetry {
		metrics = obs.NewTenantMetrics()
		cfg.Obs = &metrics.Stream
	}
	sh, err := stream.NewSharded(cfg)
	if err != nil {
		return nil, err
	}
	t := &tenant{
		name:    name,
		k:       k,
		shards:  shards,
		svc:     s,
		sh:      sh,
		metrics: metrics,
		queue:   make(chan *pointBatch, s.cfg.QueueDepth),
		created: time.Now(),
	}
	if s.cfg.CheckpointPath != "" {
		t.ckptPath = tenantCheckpointPath(s.cfg.CheckpointPath, name)
	}
	return t, nil
}

// startTenant launches the tenant's ingest worker under the service
// wait-group. Callers must not start a tenant after Close began (creation
// paths check s.closed under the registry lock).
func (s *Service) startTenant(t *tenant) {
	s.wg.Add(1)
	go t.ingestLoop()
}

// lookup returns the registered tenant, if any. An empty name means the
// default tenant.
func (s *Service) lookup(name string) (*tenant, bool) {
	if name == "" {
		name = DefaultTenant
	}
	s.tmu.RLock()
	t, ok := s.tenants[name]
	s.tmu.RUnlock()
	return t, ok
}

// createTenant lazily creates (or returns) the named tenant, enforcing the
// MaxTenants cap. It is the only way tenants come into existence after
// New: first ingest contact pins the tenant's shape (k, shards — the
// dimension pins itself on the first batch, exactly as the default
// tenant's does). If a checkpoint file for the name already exists (e.g. a
// previous process ran with a larger cap), it is restored rather than
// silently overwritten; a failed restore quarantines the name and returns
// the typed error, because creating a fresh clustering over a corrupt
// checkpoint would eventually clobber the operator's data.
func (s *Service) createTenant(name string, k, shards int) (*tenant, error) {
	// If a checkpoint file for the name already exists (e.g. a previous
	// process ran with a larger cap, or the operator copied a backup in),
	// it is restored rather than silently overwritten — and it, not the
	// request, owns the tenant's shape: the ingester must be built with
	// the checkpointed k/shards or the restore would spuriously mismatch.
	// The disk probe runs BEFORE the registry lock: routing for every
	// other tenant holds tmu's read side, and a file read under the write
	// lock would turn one tenant's lazy restore into a cross-tenant
	// latency spike. A racing creation at worst wastes one read.
	var snap *checkpoint.Snapshot
	var snapErr error
	if s.cfg.CheckpointPath != "" {
		if _, ok := s.lookup(name); !ok {
			sn, err := checkpoint.Read(tenantCheckpointPath(s.cfg.CheckpointPath, name))
			switch {
			case err == nil:
				snap = sn
			case errors.Is(err, fs.ErrNotExist):
			default:
				snapErr = err
			}
		}
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if t, ok := s.tenants[name]; ok {
		// A racing creation won: hand back its tenant under the same
		// contract resolveIngest enforces on the lookup path — a
		// quarantined tenant refuses, conflicting shape headers refuse.
		if t.failed != nil {
			return nil, t.failed
		}
		if (k > 0 && k != t.k) || (shards > 0 && shards != t.shards) {
			return nil, fmt.Errorf("%w: tenant %q has k=%d shards=%d, request pins k=%d shards=%d",
				errTenantConflict, name, t.k, t.shards, k, shards)
		}
		return t, nil
	}
	if s.closed.Load() {
		return nil, errShuttingDown
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("%w: %d tenants exist, max %d", errTenantCap, len(s.tenants), s.cfg.MaxTenants)
	}
	if snapErr != nil {
		// Damaged file: quarantine the name rather than creating a fresh
		// clustering that would eventually clobber it.
		s.quarantine(name, snapErr)
		return nil, s.tenants[name].failed
	}
	if snap != nil {
		if (k > 0 && k != snap.K) || (shards > 0 && shards != snap.Shards) {
			return nil, fmt.Errorf("%w: checkpointed tenant %q has k=%d shards=%d, request pins k=%d shards=%d",
				errTenantConflict, name, snap.K, snap.Shards, k, shards)
		}
		k, shards = snap.K, snap.Shards
	}
	t, err := s.newTenant(name, k, shards)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		if err := t.restoreSnap(snap); err != nil {
			_, _ = t.sh.Finish() // reap the shard goroutines
			s.quarantine(name, err)
			return nil, s.tenants[name].failed
		}
	}
	s.tenants[name] = t
	s.startTenant(t)
	return t, nil
}

// restoreTenantDir scans <CheckpointPath>.d for per-tenant checkpoints and
// restores each as a tenant. A tenant whose checkpoint is damaged is
// quarantined — registered with a typed failure so its name, error and
// on-disk file survive for the operator — while every healthy sibling
// resumes exactly. Called from New before the registry serves traffic, so
// no locking is needed. Restored tenants are exempt from the MaxTenants
// cap: the cap gates new clusterings, never previously accepted data.
func (s *Service) restoreTenantDir() error {
	dir := s.cfg.CheckpointPath + ".d"
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: tenant checkpoint dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".ckpt")
		if !validTenantName(name) || name == DefaultTenant {
			continue // not a file this service wrote; leave it alone
		}
		path := filepath.Join(dir, e.Name())
		snap, err := checkpoint.Read(path)
		if err != nil {
			s.quarantine(name, err)
			continue
		}
		t, err := s.newTenant(name, snap.K, snap.Shards)
		if err != nil {
			s.quarantine(name, err)
			continue
		}
		if err := t.restoreSnap(snap); err != nil {
			_, _ = t.sh.Finish() // reap the shard goroutines
			s.quarantine(name, err)
			continue
		}
		s.tenants[name] = t // New starts every registered tenant's worker
	}
	return nil
}

// quarantine registers a failed tenant: present in listings with its typed
// error, refusing traffic, never touching its checkpoint file.
func (s *Service) quarantine(name string, cause error) {
	s.tenants[name] = &tenant{
		name:    name,
		svc:     s,
		created: time.Now(),
		failed:  fmt.Errorf("%w: %w", ErrTenantFailed, cause),
	}
}

// restore warm-starts the tenant from its checkpoint file. A missing file
// propagates fs.ErrNotExist (callers treat it as a cold start).
func (t *tenant) restore() error {
	snap, err := checkpoint.Read(t.ckptPath)
	if err != nil {
		return err
	}
	return t.restoreSnap(snap)
}

// restoreSnap loads a decoded checkpoint into the tenant's fresh ingester
// and primes the counters the stats contract derives from it.
func (t *tenant) restoreSnap(snap *checkpoint.Snapshot) error {
	if err := snap.Restore(t.sh, ""); err != nil {
		return err
	}
	t.dim.Store(int64(snap.Dim))
	// The stats contract is that ingested_points covers the clustering's
	// whole history, which now began before this process did.
	t.ingestedPoints.Store(snap.Ingested)
	t.ckptEver.Store(true)
	t.lastCkptVersion.Store(snap.CentersVersion)
	t.lastCkptUnix.Store(snap.CreatedUnixNano)
	var centers int
	for i := range snap.State.Shards {
		centers += len(snap.State.Shards[i].Centers)
	}
	t.restored = &RestoreSummary{
		Tenant:         t.name,
		Path:           t.ckptPath,
		Created:        snap.Created(),
		Ingested:       snap.Ingested,
		Centers:        centers,
		Dim:            snap.Dim,
		CentersVersion: snap.CentersVersion,
	}
	return nil
}

// degradedInfo is the runtime quarantine record of a tenant.
type degradedInfo struct {
	err error
	at  time.Time
}

// degrade quarantines the tenant at runtime: reads keep serving its last
// good cached snapshot, ingest is rejected, queued batches are discarded
// (counted in droppedPoints) and no further checkpoint is ever written, so
// the last good on-disk state survives for the restart. The first cause
// wins; later calls are no-ops, so the log line is rate-limited to one per
// outage by construction.
func (t *tenant) degrade(cause error) {
	info := &degradedInfo{
		err: fmt.Errorf("%w: %w", ErrTenantFailed, cause),
		at:  time.Now(),
	}
	if t.degraded.CompareAndSwap(nil, info) {
		obs.Default().Warn("tenant degraded, serving last good snapshot read-only",
			"tenant", t.name, "err", cause.Error())
	}
}

// checkDegraded returns the tenant's quarantine error (nil while healthy),
// promoting a contained shard failure into tenant-level quarantine the
// first time any caller observes it. The healthy path is two atomic loads,
// cheap enough for every handler to call per request.
func (t *tenant) checkDegraded() error {
	if d := t.degraded.Load(); d != nil {
		return d.err
	}
	if t.sh != nil {
		if err := t.sh.Failed(); err != nil {
			t.degrade(err)
			return t.degraded.Load().err
		}
	}
	return nil
}

// totalDropped is every point this tenant lost to degradation: queued
// batches discarded by the worker plus messages the shards abandoned.
func (t *tenant) totalDropped() int64 {
	n := t.droppedPoints.Load()
	if t.sh != nil {
		n += t.sh.DroppedPoints()
	}
	return n
}

// lastCheckpointError returns the most recent background write failure, ""
// after a success (or before any failure).
func (t *tenant) lastCheckpointError() string {
	if s, ok := t.lastCkptErrMsg.Load().(string); ok {
		return s
	}
	return ""
}

// ckptRetryTime reads the backoff deadline under ckptMu.
func (t *tenant) ckptRetryTime() time.Time {
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	return t.ckptRetryAt
}

// writeCheckpoint captures and atomically persists the tenant's state,
// rotating prior checkpoints when CheckpointKeep asks for a rollback
// window. Serialized by ckptMu so the periodic loop, CheckpointNow and the
// final flush in Close never interleave, and lastCkptVersion always names
// the version on disk. Failures (including a contained panic anywhere in
// the write path) feed the backoff state the background loop consults, log
// exactly once per failing↔healthy transition, and leave the previous
// checkpoint intact on disk — writes are atomic and a degraded tenant is
// refused outright.
func (t *tenant) writeCheckpoint() error {
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	err := t.writeCheckpointLocked()
	now := time.Now()
	if err != nil {
		t.ckptWriteFailed = true
		t.ckptErrors.Add(1)
		t.lastCkptErrMsg.Store(err.Error())
		t.ckptFailStreak++
		t.ckptRetryAt = now.Add(ckptBackoff(t.svc.cfg.CheckpointInterval, t.ckptFailStreak))
		if t.ckptFailStreak == 1 {
			obs.Default().Warn("checkpoint failing, backing off",
				"tenant", t.name, "err", err.Error())
		}
		return err
	}
	if t.ckptFailStreak > 0 {
		obs.Default().Info("checkpoint healthy again",
			"tenant", t.name, "failed_attempts", t.ckptFailStreak)
	}
	t.ckptFailStreak = 0
	t.ckptRetryAt = time.Time{}
	t.ckptWriteFailed = false
	t.lastCkptErrMsg.Store("")
	t.ckptWrites.Add(1)
	return nil
}

// writeCheckpointLocked is the capture-rotate-write sequence, caller holding
// ckptMu. A panic anywhere inside (e.g. an injected fault, or a bug in the
// serialization path) is contained into an error: a checkpoint must never
// take the serving process down.
func (t *tenant) writeCheckpointLocked() (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("server: checkpoint write panicked: %v", v)
		}
	}()
	if derr := t.checkDegraded(); derr != nil {
		// Never overwrite the last good checkpoint with suspect state.
		return fmt.Errorf("server: refusing checkpoint of degraded tenant: %w", derr)
	}
	if t.name != DefaultTenant {
		// Per-tenant files live under <base>.d, created on first write.
		if err := os.MkdirAll(filepath.Dir(t.ckptPath), 0o755); err != nil {
			return fmt.Errorf("server: tenant checkpoint dir: %w", err)
		}
	}
	snap := checkpoint.Capture(t.sh, "")
	if ferr := t.sh.Failed(); ferr != nil {
		// A shard panicked while (or before) the capture read its summary:
		// the captured state may be half-updated. The failure flag is set
		// before the panicking shard releases its lock, so this post-capture
		// check is sufficient to reject every suspect capture.
		return fmt.Errorf("server: discarding checkpoint captured from failed ingester: %w", ferr)
	}
	if keep := t.svc.cfg.CheckpointKeep; keep > 0 && !t.ckptWriteFailed {
		checkpoint.Rotate(t.ckptPath, keep, t.svc.cfg.Faults)
	}
	if err := checkpoint.Write(t.ckptPath, snap, t.svc.cfg.Faults, t.svc.ckptMetrics); err != nil {
		return err
	}
	t.ckptEver.Store(true)
	t.lastCkptVersion.Store(snap.CentersVersion)
	t.lastCkptUnix.Store(snap.CreatedUnixNano)
	return nil
}

// ingestLoop is the tenant's single ingest worker: it drains queued
// batches into the sharded summarizer. One worker per tenant suffices — a
// Push is a copy plus a channel send (~tens of ns); the shard goroutines
// do the clustering work, and separate workers keep one tenant's backlog
// from ever queueing behind another's. Each batch is processed with panic
// containment (ingestOne), so a worker panic degrades this tenant instead
// of killing the process, and the loop keeps draining — discarding, with
// accounting — until Close closes the queue.
func (t *tenant) ingestLoop() {
	defer t.svc.wg.Done()
	for batch := range t.queue {
		t.ingestOne(batch)
	}
}

// ingestOne pushes one queued batch with panic containment: a panic here
// (an organic bug, or the server.ingest fault point) quarantines only this
// tenant — the batch is counted dropped, the tenant degrades, and the
// worker survives to drain (and discard) the rest of its queue so
// producers and Close never block on a dead consumer.
func (t *tenant) ingestOne(batch *pointBatch) {
	defer t.pendingBatches.Add(-1)
	defer func() {
		if v := recover(); v != nil {
			t.droppedPoints.Add(int64(batch.ds.N))
			t.degrade(fmt.Errorf("ingest worker panicked: %v", v))
		}
	}()
	if t.checkDegraded() != nil {
		// Quarantined: queued work is discarded (and counted) rather than
		// pushed into a suspect clustering.
		t.droppedPoints.Add(int64(batch.ds.N))
		putBatch(batch)
		return
	}
	// Injection point for chaos testing: error and panic rules panic here
	// (exercising the containment above), delay rules slow the worker so
	// its queue backs up toward the shed watermark. Without Faults: one nil
	// check.
	if err := t.svc.cfg.Faults.Hit(fault.ServerIngest); err != nil {
		panic(err)
	}
	// Batches were validated at the handler, so PushBatch cannot fail on
	// dimensions; a failure here would mean Push-after-Finish, which the
	// drain ordering in Close rules out. The batch goes to the shards as
	// one striped slab per shard (O(shards) allocations and sends instead
	// of O(points)) with routing identical to per-point pushes. The push
	// span is the ingest route's asynchronous stage: it belongs to the
	// batch, not to the request that queued it, so it is recorded here
	// rather than in the handler's trace.
	var pushStart time.Time
	if t.metrics != nil {
		pushStart = time.Now()
	}
	t.pushRows = t.pushRows[:0]
	for i := 0; i < batch.ds.N; i++ {
		t.pushRows = append(t.pushRows, batch.ds.At(i))
	}
	if err := t.sh.PushBatch(t.pushRows); err == nil {
		if t.metrics != nil {
			t.metrics.StageHist(obs.RouteIngest, obs.StagePush).ObserveSince(pushStart)
		}
		t.ingestedPoints.Add(int64(batch.ds.N))
	} else {
		t.droppedPoints.Add(int64(batch.ds.N))
	}
	putBatch(batch) // PushBatch copied into shard slabs; recycle
	if cap(t.pushRows) > maxPooledRows {
		t.pushRows = nil // an outlier batch must not pin its views
	}
	// Promote a shard failure this batch may have tripped, so the very next
	// request observes the quarantine instead of racing the next tick.
	t.checkDegraded()
}

// enqueue hands one validated batch to the tenant's ingest worker. A full
// queue is the tenant's overload watermark: the handler waits up to
// ShedAfter for space, then sheds with errOverCapacity (HTTP 429 +
// Retry-After) so producers that are persistently over capacity get an
// explicit throttle signal instead of pinning a handler indefinitely — and
// since the queue, patience and counters are all per tenant, one tenant
// saturating its queue sheds its own producers while every other tenant's
// ingest path stays clear. It also fails when the service is shutting down
// or when ctx is done first (client timeout or cancellation).
func (t *tenant) enqueue(ctx context.Context, batch *pointBatch) error {
	t.qmu.RLock()
	defer t.qmu.RUnlock()
	if t.svc.closed.Load() {
		return errShuttingDown
	}
	// Count the batch pending before the send so the worker's decrement
	// (which may run the instant the send lands) can never observe — or
	// expose via /v1/stats — a negative gauge.
	t.pendingBatches.Add(1)
	select {
	case t.queue <- batch:
		return nil
	default:
	}
	if t.svc.cfg.ShedAfter < 0 {
		// Shedding disabled: block until space, shutdown or the request
		// context expires.
		select {
		case t.queue <- batch:
			return nil
		case <-t.svc.done:
			t.pendingBatches.Add(-1)
			return errShuttingDown
		case <-ctx.Done():
			t.pendingBatches.Add(-1)
			return fmt.Errorf("ingest queue full: %w", ctx.Err())
		}
	}
	shed := time.NewTimer(t.svc.cfg.ShedAfter)
	defer shed.Stop()
	select {
	case t.queue <- batch:
		return nil
	case <-t.svc.done:
		t.pendingBatches.Add(-1)
		return errShuttingDown
	case <-ctx.Done():
		t.pendingBatches.Add(-1)
		return fmt.Errorf("ingest queue full: %w", ctx.Err())
	case <-shed.C:
		t.pendingBatches.Add(-1)
		t.shedBatches.Add(1)
		t.shedPoints.Add(int64(batch.ds.N))
		return errOverCapacity
	}
}

// dimInt returns the tenant's pinned dimensionality, or 0 when nothing has
// been accepted yet.
func (t *tenant) dimInt() int { return int(t.dim.Load()) }

// snapshot returns the tenant's cached consistent view, rebuilding it only
// when the merged version has moved since the cached one was taken — some
// local shard's center set changed, or a replicated remote state was folded
// in (MergedVersion covers both, and collapses to the local center version
// when replication is idle).
// The steady-state read is lock-free (one atomic load after the version
// read); snapMu is taken only around a rebuild, with the version re-checked
// under it so racing readers trigger one merge, not one each. The version
// is read before the merge, so the cached snapshot is at least as fresh as
// its key and a concurrent center change at worst forces one extra rebuild.
// A degraded tenant serves its last good cached snapshot read-only — no
// rebuild ever runs over suspect summaries.
func (t *tenant) snapshot() (*querySnapshot, error) {
	if derr := t.checkDegraded(); derr != nil {
		if qs := t.snap.Load(); qs != nil {
			return qs, nil
		}
		return nil, derr
	}
	v := t.sh.MergedVersion()
	if qs := t.snap.Load(); qs != nil && qs.version == v {
		return qs, nil
	}
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	if qs := t.snap.Load(); qs != nil && qs.version == v {
		return qs, nil
	}
	res, err := t.sh.Snapshot()
	if err != nil {
		if t.checkDegraded() != nil {
			// The ingester failed between the degraded check above and the
			// rebuild; fall back to the last good view like any other
			// degraded read.
			if qs := t.snap.Load(); qs != nil {
				return qs, nil
			}
		}
		return nil, err
	}
	qs := &querySnapshot{version: v, res: res, index: metric.NewIndex(res.Centers)}
	t.snap.Store(qs)
	t.snapshotBuilds.Add(1)
	return qs, nil
}
