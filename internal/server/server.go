// Package server is the serving layer: an HTTP/JSON clustering service
// that multiplexes one or more independent clusterings — tenants — over a
// single process. Each tenant owns a live sharded streaming ingester
// (stream.Sharded) and answers queries against consistent snapshots of its
// evolving clustering; requests route to a tenant via the X-Kcenter-Tenant
// header (or the "tenant" body/query field), and requests that name no
// tenant hit the implicit default tenant with responses byte-identical to
// the original single-tenant wire format.
//
// The paper makes k-center fast enough to serve at scale; this package is
// where that capacity meets traffic. Eight endpoints:
//
//	POST /v1/ingest   batched point ingestion. Bodies are decoded by the
//	                  points codec (codec.go) straight into one slab per
//	                  batch. Batches are validated, then
//	                  enqueued on the tenant's bounded queue consumed by
//	                  its ingest worker; a full queue is that tenant's
//	                  overload watermark — the handler waits up to
//	                  ShedAfter for space, then sheds the batch with 429 +
//	                  Retry-After so persistently over-capacity producers
//	                  get an explicit throttle instead of pinning handlers.
//	                  First contact with an unknown tenant name creates it
//	                  (multi-tenant mode, below the cap), pinning its k and
//	                  shard count from the X-Kcenter-K / X-Kcenter-Shards
//	                  headers or the configured defaults.
//	POST /v1/assign   batch nearest-center assignment. All points of one
//	                  request are assigned against a single cached snapshot
//	                  of the tenant's clustering (snapshot isolation), in
//	                  one assign.NearestBatch pass over the decoded query
//	                  slab through the snapshot's metric.Index (whose
//	                  kernel metric.NewIndex chooses).
//	GET  /v1/centers  the tenant's current ≤ k center coordinates and
//	                  certified coverage bounds.
//	POST /v1/replicate one peer node's checksummed exported clustering
//	                  state, folded into the named tenant's merged view so
//	                  this node serves assign/centers against the union
//	                  summary (see replicate.go; the push side is the
//	                  Config.ReplicatePeers loop).
//	GET  /v1/stats    per-tenant service counters (points, batches, the
//	                  distance evaluations the assign kernel computed),
//	                  snapshot version and per-shard state; in
//	                  multi-tenant mode the default view also carries a
//	                  per-tenant summary and aggregate totals.
//	GET  /v1/tenants  the tenant registry: every tenant's shape, counters,
//	                  status (active, degraded or failed) and checkpoint
//	                  file.
//	GET  /v1/healthz  liveness vs readiness: live is "the process answers",
//	                  ready is "not shutting down" (503 when it is);
//	                  degraded and failed tenants are listed but do not
//	                  fail readiness — their siblings still serve.
//	GET  /metrics     Prometheus text-format exposition: per-tenant and
//	                  aggregate request/stage latency histograms (live only
//	                  with Config.Telemetry), the service counters, tenant
//	                  health gauges, shard dwell and checkpoint durations.
//
// Observability (Config.Telemetry, recorded through internal/obs): handlers
// trace each ingest/assign request through its stages (decode, queue wait,
// snapshot, kernel scan, encode; the shard push of a dequeued batch is
// recorded by the ingest worker), shard channels report message dwell and
// burst occupancy, and the checkpoint path reports write/fsync durations.
// The same histograms back /metrics, the p50/p99/max latency fields in
// /v1/stats, and the threshold-gated slow-request log (Config.SlowRequest).
// Every switchboard is per Service: the metric sets exist only on a Service
// built with Telemetry, and fault rules live in its own Config.Faults, so
// one Service can never arm, disarm or count for another in the same
// process. Without them every instrumentation and injection point costs one
// nil check. Config.Pprof additionally mounts the net/http/pprof handlers
// under /debug/pprof/.
//
// Tenant semantics: unknown tenants are 404 on query endpoints, lazily
// created on ingest (multi-tenant mode only); a creation past MaxTenants is
// 429; re-contact with conflicting shape headers — or any request to a
// tenant quarantined by a failed restore — is 409. Tenant isolation is
// structural: separate ingesters, queues, workers, snapshot caches and
// checkpoint files, sharing only the Go scheduler and the HTTP listener.
//
// Failure is contained per tenant: a panic in a tenant's ingest worker or
// one of its shard goroutines degrades only that tenant (typed
// ErrTenantFailed wrapping the panic value) — it keeps serving its last
// good snapshot read-only, rejects new ingest with 409, counts every
// discarded point in dropped_points, and never writes another checkpoint,
// so a restart recovers it bit-identically from its last good one. A panic
// that escapes an HTTP handler is answered with a JSON 500 by the recovery
// middleware in Handler instead of killing the process. The internal/fault
// framework can inject all of these failures deterministically through
// Config.Faults (see the kcenter serve -faults flag and the chaos harness
// experiment).
//
// Shutdown is graceful: Close rejects new batches, drains every tenant's
// queued ones into its shards, then flushes each ingester's final merged
// result. The caller (the kcenter serve CLI) shuts the http.Server down
// first, so in-flight handlers finish before the drain begins.
//
// Persistence (optional, via Config.CheckpointPath): each tenant restores
// its clustering from its own checkpoint file on startup and persists it
// atomically — in the background on CheckpointInterval whenever its
// center-set version advanced, and once more after the graceful drain. The
// default tenant's file is CheckpointPath itself; other tenants compose as
// independent <CheckpointPath>.d/<tenant>.ckpt files, so a corrupt file
// fails that tenant (it is quarantined with a typed error) while every
// sibling — and the server — resumes exactly. CheckpointKeep > 0
// additionally retains the last N checkpoints per file (<path>.1 … <path>.N)
// for operator rollback after a bad feed. See internal/checkpoint for the
// format and its corruption guarantees.
package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kcenter/internal/fault"
	"kcenter/internal/metric"
	"kcenter/internal/obs"
	"kcenter/internal/stream"
)

// Config parameterizes a Service.
type Config struct {
	// K is the number of centers the default tenant's clustering maintains
	// (and the default for lazily created tenants when DefaultK is 0).
	// Required.
	K int
	// Shards is the number of concurrent ingestion shards per tenant;
	// 0 means 1. A new tenant may override it at creation with the
	// X-Kcenter-Shards header.
	Shards int
	// Buffer is the per-shard channel depth; 0 means the stream default.
	Buffer int
	// MaxBatch caps the points accepted in one ingest or assign request;
	// 0 means 4096. Larger batches get 413.
	MaxBatch int
	// QueueDepth bounds each tenant's ingest queue in batches; 0 means 64.
	// The queue being full is that tenant's overload watermark: its ingest
	// handlers wait up to ShedAfter for space, then shed the batch with 429.
	QueueDepth int
	// ShedAfter is how long an ingest handler waits at a full queue before
	// shedding the batch with 429 + Retry-After. 0 means 1s. A negative
	// value disables shedding entirely: handlers block until the request
	// context expires (the pre-shedding backpressure behavior), which can
	// pin every server thread on a persistently saturated queue.
	ShedAfter time.Duration
	// CheckpointPath, when non-empty, enables persistence: each tenant
	// restores from its checkpoint file on startup (if it exists) and
	// checkpoints its clustering state periodically and on graceful Close,
	// so a restarted server resumes every tenant warm. The default
	// tenant's file is this path; other tenants write
	// <path>.d/<tenant>.ckpt. Each state written is O(Shards·K) regardless
	// of ingest volume.
	CheckpointPath string
	// CheckpointInterval is the background checkpoint period; 0 means 15s.
	// Each tick writes only the tenants whose center-set version advanced
	// since their last write, so quiet periods write nothing.
	CheckpointInterval time.Duration
	// CheckpointKeep retains the last N checkpoints per tenant as
	// <path>.1 (newest) through <path>.N (oldest) so an operator can roll
	// back after a bad feed (copy <path>.i over <path> and restart).
	// 0 keeps no history: each write atomically replaces the previous.
	CheckpointKeep int
	// MaxTenants enables multi-tenant mode when > 0: requests may route to
	// named tenants, and first ingest contact with an unknown name lazily
	// creates it until MaxTenants tenants exist (the default tenant
	// counts; tenants restored from checkpoints are exempt from the cap).
	// 0 disables multi-tenancy — only the default tenant exists and named
	// routing returns 404 — which is the byte-compatible single-tenant
	// mode.
	MaxTenants int
	// DefaultK is the center budget for lazily created tenants that do not
	// pin their own with the X-Kcenter-K header; 0 means K.
	DefaultK int
	// NodeID names this node in the replication gossip: the origin label
	// its pushed states carry and the label under which its own local
	// summaries enter the merged union, so peers key their per-origin slots
	// consistently. Required when ReplicatePeers is set; must be a valid
	// tenant-style name so it is safe on the wire. Empty (the default)
	// leaves the node unlabeled, which is fine for a node that only
	// receives.
	NodeID string
	// ReplicatePeers lists peer base URLs (e.g. http://10.0.0.2:8080) this
	// node pushes every tenant's exported clustering state to. Each tick of
	// the push loop ships a tenant's state to every peer whose last
	// acknowledged version is stale; push failures back the peer off under
	// capped exponential backoff (the peer is quarantined, never the
	// tenant). Empty disables pushing; the /v1/replicate endpoint accepts
	// inbound states regardless.
	ReplicatePeers []string
	// ReplicateInterval is the push loop period; 0 means 2s. Staleness on a
	// healthy link is bounded by roughly one interval plus the transfer
	// time.
	ReplicateInterval time.Duration
	// Telemetry arms this Service's telemetry (per-stage latency
	// histograms, request traces, shard dwell, checkpoint durations) so GET
	// /metrics and the /v1/stats latency fields carry live distributions.
	// Off, the metric sets are never allocated and every instrumentation
	// point costs one nil check. Other Services in the process are
	// unaffected either way.
	Telemetry bool
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/ on the
	// service mux. Off by default: profiling endpoints expose memory
	// contents and must be an explicit operator decision.
	Pprof bool
	// SlowRequest, when > 0, logs any traced request whose end-to-end
	// latency meets the threshold — one structured line with the per-stage
	// breakdown. Requires Telemetry. 0 disables the slow-request log.
	SlowRequest time.Duration
	// Faults is this Service's fault-injection switchboard: every injection
	// point in its handlers, ingest workers, shard goroutines, replication
	// and checkpoint writes hits it. nil — the production state — never
	// fires; a test (or the kcenter serve -faults flag) arms it, and may
	// Arm or Disarm it while the Service runs.
	Faults *fault.Set
}

func (c Config) withDefaults() (Config, error) {
	if c.K <= 0 {
		return c, fmt.Errorf("server: k must be >= 1, got %d", c.K)
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ShedAfter == 0 {
		c.ShedAfter = time.Second
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 15 * time.Second
	}
	if c.CheckpointKeep < 0 {
		c.CheckpointKeep = 0
	}
	if c.MaxTenants < 0 {
		c.MaxTenants = 0
	}
	if c.DefaultK <= 0 {
		c.DefaultK = c.K
	}
	if c.SlowRequest < 0 {
		c.SlowRequest = 0
	}
	if c.ReplicateInterval <= 0 {
		c.ReplicateInterval = 2 * time.Second
	}
	if c.NodeID != "" && !validTenantName(c.NodeID) {
		return c, fmt.Errorf("server: invalid node id %q", c.NodeID)
	}
	if len(c.ReplicatePeers) > 0 && c.NodeID == "" {
		return c, fmt.Errorf("server: replicate peers require a node id (peers key per-origin state by it)")
	}
	for _, p := range c.ReplicatePeers {
		if p == "" {
			return c, fmt.Errorf("server: empty replicate peer URL")
		}
	}
	return c, nil
}

// Service is the HTTP clustering service. Create with New, mount Handler()
// on an http.Server, and call Close exactly once to drain and flush. The
// embedded tenant is the implicit default tenant — the single-tenant
// internals and wire format are literally the multi-tenant ones with one
// tenant.
type Service struct {
	*tenant // the default tenant

	cfg Config
	mux *http.ServeMux

	// tenants is the registry, keyed by tenant name; it always contains
	// DefaultTenant (the embedded tenant). tmu guards the map; each
	// tenant's own state has its own synchronization.
	tenants map[string]*tenant
	tmu     sync.RWMutex

	// done wakes handlers blocked on full queues and stops the checkpoint
	// loop; closed marks the service shutting down for every tenant at
	// once.
	done   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// handlerPanics counts panics the HTTP recovery middleware contained
	// (each answered 500 instead of killing the process).
	handlerPanics atomic.Int64

	// ckptMetrics records checkpoint write and fsync durations across every
	// tenant of this Service; nil without Telemetry.
	ckptMetrics *obs.CheckpointMetrics

	// peers are the replication push targets (nil when ReplicatePeers is
	// empty); each tracks its own sent-version and backoff state.
	peers []*replicaPeer

	started time.Time
}

// RestoreSummary describes a successful warm start from a checkpoint, for
// operator-facing "resumed from ..." reporting.
type RestoreSummary struct {
	// Tenant is the tenant the state belongs to (DefaultTenant for the
	// single-tenant path).
	Tenant string
	// Path is the checkpoint file the state was restored from.
	Path string
	// Created is when the checkpoint was captured.
	Created time.Time
	// Ingested is the number of points the restored clustering had seen.
	Ingested int64
	// Centers is the total retained center count across shards.
	Centers int
	// Dim is the restored point dimensionality.
	Dim int
	// CentersVersion is the restored center-set version counter.
	CentersVersion uint64
}

// New starts a Service: the default tenant's sharded ingester
// (warm-started from the configured checkpoint when one exists), any
// tenants found in the per-tenant checkpoint directory (multi-tenant
// mode), the ingest workers that drain each batch queue, and — when
// checkpointing is configured — the background checkpoint loop. A corrupt
// default checkpoint fails construction (exactly as before multi-tenancy);
// a corrupt per-tenant checkpoint quarantines only that tenant.
func New(cfg Config) (*Service, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		done:    make(chan struct{}),
		started: time.Now(),
	}
	if cfg.Telemetry {
		// Tenant metric sets are allocated in newTenant; this sink is shared
		// by every tenant's checkpoint writes.
		s.ckptMetrics = new(obs.CheckpointMetrics)
	}
	def, err := s.newTenant(DefaultTenant, cfg.K, cfg.Shards)
	if err != nil {
		return nil, err
	}
	if def.ckptPath != "" {
		if err := def.restore(); err != nil && !errors.Is(err, fs.ErrNotExist) {
			// Reap the shard goroutines NewSharded already started; the
			// empty-stream error from Finish is expected and irrelevant.
			_, _ = def.sh.Finish()
			return nil, err
		}
	}
	s.tenant = def
	s.tenants[DefaultTenant] = def
	if cfg.MaxTenants > 0 && cfg.CheckpointPath != "" {
		if err := s.restoreTenantDir(); err != nil {
			for _, t := range s.sortedTenants(live) {
				_, _ = t.sh.Finish()
			}
			return nil, err
		}
	}
	s.routes()
	for _, t := range s.sortedTenants(live) {
		s.startTenant(t)
	}
	if cfg.CheckpointPath != "" {
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	if len(cfg.ReplicatePeers) > 0 {
		s.peers = newReplicaPeers(cfg.ReplicatePeers)
		s.wg.Add(1)
		go s.replicateLoop()
	}
	return s, nil
}

// Restored reports the warm start the default tenant performed, or nil if
// it started cold (no checkpoint configured, or none existed yet).
func (s *Service) Restored() *RestoreSummary {
	return s.tenant.restored
}

// TenantRestores reports every warm start the service performed, one entry
// per tenant restored from its checkpoint (the default tenant included),
// sorted by tenant name. Empty on a fully cold start. Quarantined tenants
// do not appear — they restored nothing; see the /v1/tenants listing for
// their typed failure.
func (s *Service) TenantRestores() []*RestoreSummary {
	var out []*RestoreSummary
	for _, t := range s.sortedTenants(nil) {
		if t.restored != nil {
			out = append(out, t.restored)
		}
	}
	return out
}

// tenantNameLess is the one ordering every tenant listing uses: the default
// tenant first, then lexicographic.
func tenantNameLess(a, b string) bool {
	if (a == DefaultTenant) != (b == DefaultTenant) {
		return a == DefaultTenant
	}
	return a < b
}

// checkpointLoop periodically persists every tenant's clustering state,
// writing only the tenants whose center-set version has advanced since
// their last write so quiet tenants — and quiet periods — cost nothing.
// Write failures are counted (checkpoint_errors and last_checkpoint_error
// in /v1/stats) and retried under capped exponential backoff with jitter
// (ckptBackoff) instead of at full tick cadence — a failing disk gets
// breathing room and the log gets one line per failing↔healthy transition,
// not one per tick. The previous checkpoint stays intact on disk either
// way, because writes are atomic. Degraded tenants are skipped outright:
// their last good checkpoint is the state the restart must recover.
func (s *Service) checkpointLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			now := time.Now()
			for _, tn := range s.sortedTenants(healthy) {
				if retry := tn.ckptRetryTime(); !retry.IsZero() && now.Before(retry) {
					continue // backing off after write failures
				}
				if v := tn.sh.CentersVersion(); tn.ckptEver.Load() && v == tn.lastCkptVersion.Load() {
					continue
				}
				_ = tn.writeCheckpoint()
			}
		}
	}
}

// ckptBackoff is the retry gap after the streak-th consecutive checkpoint
// write failure: the checkpoint interval doubled per failure, capped at 16×,
// with ±25% jitter so many tenants failing together (one bad disk) do not
// retry in lockstep. The background loop still ticks every interval; the
// gap just makes it skip the failing tenant until the deadline passes.
func ckptBackoff(interval time.Duration, streak int) time.Duration {
	if streak < 1 {
		streak = 1
	}
	shift := streak - 1
	if shift > 4 {
		shift = 4
	}
	d := interval << uint(shift)
	return time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
}

// CheckpointNow synchronously captures and persists every tenant's current
// clustering state, regardless of whether its center-set version advanced
// (tenants that never ingested are skipped — there is nothing to persist).
// It is the forced-flush entry point for tests, operational tooling and
// the restart experiment; the periodic loop and graceful Close call the
// same per-tenant writer. It fails if the service was built without a
// CheckpointPath; per-tenant write failures are joined.
func (s *Service) CheckpointNow() error {
	if s.cfg.CheckpointPath == "" {
		return fmt.Errorf("server: no checkpoint path configured")
	}
	var errs []error
	for _, t := range s.sortedTenants(healthy) {
		if err := t.writeCheckpoint(); err != nil {
			errs = append(errs, fmt.Errorf("tenant %s: %w", t.name, err))
		}
	}
	return errors.Join(errs...)
}

var errShuttingDown = fmt.Errorf("service is shutting down")

// errOverCapacity reports a batch shed at the queue watermark; the handler
// maps it to 429 + Retry-After.
var errOverCapacity = fmt.Errorf("ingest queue full: over capacity")

// retryAfterSeconds is the Retry-After hint sent with a shed response: the
// shed patience rounded up to whole seconds (at least 1), since a producer
// retrying sooner than the patience window would likely be shed again.
func (s *Service) retryAfterSeconds() int {
	secs := int(math.Ceil(s.cfg.ShedAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Close drains and flushes the service: new batches are rejected, every
// tenant's queued batches are pushed into its shards, and each ingester's
// Finish merge runs. It returns the default tenant's final clustering over
// everything it ingested (the single-tenant contract, unchanged). When
// persistence is configured, each tenant's fully drained state is
// checkpointed after its merge, so the next start resumes everything this
// process ingested. The HTTP server should be shut down first so no
// handler is still producing. If ctx expires mid-drain, Close returns its
// error and the final merges and checkpoints are skipped (the last
// periodic checkpoints stay intact). A failed final checkpoint — or a
// non-default tenant's drain failure — is reported alongside the default
// tenant's merged result.
func (s *Service) Close(ctx context.Context) (*stream.Result, error) {
	if !s.closed.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("server: Close called twice")
	}
	close(s.done) // wake handlers blocked on full queues and stop the checkpoint loop
	// Snapshot the registry: creation checks closed under tmu, so no
	// tenant can appear after this read.
	all := s.sortedTenants(live)
	for _, t := range all {
		t.qmu.Lock() // every enqueue holds the read side; none in flight now
		close(t.queue)
		t.qmu.Unlock()
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return nil, fmt.Errorf("server: drain aborted: %w", ctx.Err())
	}
	var defRes *stream.Result
	var defErr error
	var errs []error
	for _, t := range all {
		// Finish reaps the shard goroutines for degraded tenants too (their
		// backlog drains into the dropped counter); on a failed ingester it
		// returns the contained panic error instead of a merge.
		res, err := t.sh.Finish()
		if t == s.tenant {
			defRes, defErr = res, err
		} else if err != nil && !errors.Is(err, stream.ErrEmpty) {
			// A non-default tenant that ingested nothing has nothing to
			// flush; any other failure must surface.
			errs = append(errs, fmt.Errorf("tenant %s: %w", t.name, err))
		}
		// The shard goroutines have exited, so this capture sees every
		// drained point — the one moment a checkpoint is exhaustive by
		// construction. A degraded tenant (even one whose shards finished
		// cleanly, e.g. after an ingest-worker panic) is skipped: its last
		// good checkpoint must survive for the restart.
		if err == nil && t.ckptPath != "" && t.checkDegraded() == nil {
			if werr := t.writeCheckpoint(); werr != nil {
				errs = append(errs, fmt.Errorf("server: final checkpoint (tenant %s): %w", t.name, werr))
			}
		}
	}
	if defErr != nil {
		// Named tenants' drain/checkpoint failures must still surface even
		// when the default tenant has nothing to flush (ErrEmpty); Join
		// keeps both detectable with errors.Is.
		if len(errs) == 0 {
			return nil, defErr
		}
		return nil, errors.Join(append([]error{defErr}, errs...)...)
	}
	return defRes, errors.Join(errs...)
}

// querySnapshot is one cached consistent view of a tenant's clustering:
// the merged ≤ k centers plus their nearest-center index, built once per
// snapshot. It is immutable and safe for concurrent readers.
type querySnapshot struct {
	version uint64
	res     *stream.Result
	index   *metric.Index
}
