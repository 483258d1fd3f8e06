// HTTP handlers and the /v1 wire format. All bodies are JSON; errors are
// {"error": "..."} with a meaningful status code: 400 malformed input or
// dimension mismatch, 404 unknown route or unknown tenant, 405 wrong
// method, 409 querying before any data has been ingested, conflicting
// tenant shape headers, or a tenant quarantined by a failed restore, 413
// batch over the configured limit, 429 (with Retry-After) batch shed at
// the ingest-queue watermark or tenant creation past the cap, 503 shutting
// down or client-side timeout while the queue was full.
//
// Tenant routing (wire-format v1.1, additive): the X-Kcenter-Tenant header
// names the tenant a request operates on; POST bodies may carry the same
// name in a "tenant" field and GETs in a ?tenant= query parameter (the
// header wins; an explicit disagreement is 400). Requests that name no
// tenant hit the implicit default tenant with responses byte-identical to
// the single-tenant wire format. A first ingest contact may pin the new
// tenant's shape with X-Kcenter-K and X-Kcenter-Shards.

package server

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"kcenter/internal/assign"
	"kcenter/internal/fault"
	"kcenter/internal/obs"
)

// Routing headers (wire-format v1.1).
const (
	// TenantHeader routes a request to a named tenant; absent means the
	// default tenant.
	TenantHeader = "X-Kcenter-Tenant"
	// TenantKHeader pins a lazily created tenant's center budget at first
	// ingest contact; on later requests it must match the pinned value
	// (409 otherwise).
	TenantKHeader = "X-Kcenter-K"
	// TenantShardsHeader pins a lazily created tenant's shard count at
	// first ingest contact, like TenantKHeader.
	TenantShardsHeader = "X-Kcenter-Shards"
)

// ingestRequest is the POST /v1/ingest body.
type ingestRequest struct {
	// Points holds the batch, one row per point, all rows the same
	// dimension (and the same dimension as every previous batch of the
	// tenant).
	Points [][]float64 `json:"points"`
	// Tenant optionally names the tenant in-band, equivalent to the
	// X-Kcenter-Tenant header (which wins on disagreement).
	Tenant string `json:"tenant,omitempty"`
}

// ingestResponse acknowledges an accepted batch. Acceptance means the batch
// is queued for ingestion, not yet reflected in snapshots (202, not 200).
type ingestResponse struct {
	// Accepted is the number of points queued from this batch.
	Accepted int `json:"accepted"`
	// PendingBatches is the tenant's queue depth after this batch, a
	// congestion signal producers can throttle on.
	PendingBatches int64 `json:"pending_batches"`
	// IngestedTotal is the number of points handed to the tenant's
	// clustering so far, across all batches.
	IngestedTotal int64 `json:"ingested_total"`
}

// assignRequest is the POST /v1/assign body.
type assignRequest struct {
	Points [][]float64 `json:"points"`
	Tenant string      `json:"tenant,omitempty"`
}

// snapshotMeta identifies the consistent snapshot a response was computed
// against.
type snapshotMeta struct {
	// Version is the center-set version the snapshot was keyed by; equal
	// versions across responses mean the identical center set.
	Version uint64 `json:"version"`
	// Centers is the number of centers in the snapshot (≤ k).
	Centers int `json:"centers"`
	// Radius is the certified coverage bound of the snapshot: every point
	// ingested before the snapshot lies within Radius of some center.
	Radius float64 `json:"radius"`
	// LowerBound is the certified lower bound on the optimal radius.
	LowerBound float64 `json:"lower_bound"`
	// Ingested is the number of points reflected when the snapshot was
	// built. Later points that did not change the center set (the
	// steady-state common case, which leaves Version unchanged) are also
	// covered within Radius — a point is only discarded when an existing
	// center already covers it — but they are not counted here; compare
	// /v1/stats ingested_points for the live total.
	Ingested int64 `json:"ingested"`
}

// assignment is one query point's result.
type assignment struct {
	// Center is the position of the nearest center in the snapshot's
	// center list (as returned by /v1/centers at the same version).
	Center int `json:"center"`
	// Distance is the distance to that center.
	Distance float64 `json:"distance"`
}

// assignResponse is the POST /v1/assign reply. Every assignment in one
// response was computed against the single snapshot named in Snapshot.
type assignResponse struct {
	Snapshot    snapshotMeta `json:"snapshot"`
	Assignments []assignment `json:"assignments"`
}

// centersResponse is the GET /v1/centers reply.
type centersResponse struct {
	Snapshot snapshotMeta `json:"snapshot"`
	Centers  [][]float64  `json:"centers"`
}

// shardStats is one shard's state in the stats reply.
type shardStats struct {
	Ingested int64   `json:"ingested"`
	Centers  int     `json:"centers"`
	R        float64 `json:"r"`
	// Doublings is the shard's doubling level: how many times its radius
	// has doubled (each level certifies OPT grew past the previous r).
	Doublings int `json:"doublings"`
}

// tenantInfo is one tenant's entry in the GET /v1/tenants listing (and the
// per-tenant summary inside the aggregate stats view).
type tenantInfo struct {
	// Name is the tenant name ("default" for the implicit tenant).
	Name string `json:"name"`
	// Status is "active"; "degraded" for a tenant quarantined at runtime
	// after a contained worker/shard panic (still serving its last good
	// snapshot read-only); or "failed" for a tenant quarantined by a
	// checkpoint that did not restore (refusing all traffic).
	Status string `json:"status"`
	// Error is the typed failure for a degraded or failed tenant.
	Error string `json:"error,omitempty"`
	// K and Shards are the tenant's pinned shape; Dim its pinned point
	// dimensionality (0 until first ingest).
	K      int `json:"k"`
	Shards int `json:"shards"`
	Dim    int `json:"dim"`
	// IngestedPoints / AssignPoints are the tenant's lifetime counters.
	IngestedPoints int64 `json:"ingested_points"`
	AssignPoints   int64 `json:"assign_points"`
	// Centers is the tenant's current retained center count across shards
	// (pre-merge; the merged snapshot has at most k).
	Centers int `json:"centers"`
	// CentersVersion is the tenant's live center-set version counter.
	CentersVersion uint64 `json:"centers_version"`
	// CheckpointPath is the tenant's checkpoint file, when persistence is
	// configured.
	CheckpointPath string `json:"checkpoint_path,omitempty"`
	// CreatedUnixNano is when this process created (or restored) the
	// tenant.
	CreatedUnixNano int64 `json:"created_unix_nano"`
}

// tenantsResponse is the GET /v1/tenants reply.
type tenantsResponse struct {
	// MaxTenants is the lazy-creation cap (0: multi-tenancy disabled).
	MaxTenants int `json:"max_tenants"`
	// Tenants lists every registered tenant, default first, then by name.
	Tenants []tenantInfo `json:"tenants"`
}

// aggregateStats sums the headline counters across every tenant, for the
// multi-tenant default stats view.
type aggregateStats struct {
	Tenants         int   `json:"tenants"`
	FailedTenants   int   `json:"failed_tenants"`
	DegradedTenants int   `json:"degraded_tenants"`
	MaxTenants      int   `json:"max_tenants"`
	AcceptedPoints  int64 `json:"accepted_points"`
	IngestedPoints  int64 `json:"ingested_points"`
	AssignPoints    int64 `json:"assign_points"`
	ShedPoints      int64 `json:"shed_points"`
	// DroppedPoints sums every point discarded inside a degraded tenant
	// (queued batches discarded by its quarantined worker plus in-flight
	// shard backlogs); with AcceptedPoints and ShedPoints it accounts for
	// every point any client was told was accepted.
	DroppedPoints int64 `json:"dropped_points"`
}

// statsResponse is the GET /v1/stats reply. The tenant/tenants/aggregate
// fields appear only in multi-tenant mode, so the single-tenant reply is
// byte-identical to the pre-tenancy wire format.
type statsResponse struct {
	K             int     `json:"k"`
	Shards        int     `json:"shards"`
	Dim           int     `json:"dim"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	tenantCounters
	// LastCheckpointUnixNano is the capture time of the newest on-disk
	// checkpoint, 0 if none.
	LastCheckpointUnixNano int64 `json:"last_checkpoint_unix_nano"`
	// LastCheckpointError is the message of the most recent checkpoint
	// write failure, cleared by the next successful write; empty while
	// persistence is healthy (the field is then omitted, keeping healthy
	// replies byte-identical to the pre-fault wire format).
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
	// RestoredPoints is the ingested count inherited from the checkpoint
	// this process warm-started from (0 on a cold start); it is already
	// included in IngestedPoints.
	RestoredPoints int64 `json:"restored_points"`
	// DroppedPoints counts points this tenant discarded after accepting
	// them: batches its degraded ingest worker drained-and-discarded plus
	// shard backlogs dropped after a contained shard panic. 0 (omitted)
	// for a healthy tenant.
	DroppedPoints int64 `json:"dropped_points,omitempty"`
	// Degraded marks a tenant quarantined at runtime; DegradedError is the
	// typed cause. Both are omitted for healthy tenants.
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedError string `json:"degraded_error,omitempty"`
	// IngestLatency / AssignLatency summarize the tenant's end-to-end
	// request latency distributions (p50/p99/max, from the same histograms
	// /metrics exposes). Attached only once telemetry has recorded at least
	// one request on the route, so replies from a disarmed process stay
	// byte-identical to the pre-telemetry wire format.
	IngestLatency *routeLatency `json:"ingest_latency,omitempty"`
	AssignLatency *routeLatency `json:"assign_latency,omitempty"`
	// Replication describes this node's gossip state — its push peers and
	// the remote origins folded into this tenant, with per-origin staleness.
	// Attached only when the node pushes, carries a node id, or has folded
	// remote state, so replication-free replies stay byte-identical.
	Replication *replicationStats `json:"replication,omitempty"`
	// Snapshot is the cached query view, as last built by /v1/assign or
	// /v1/centers; absent until one has been built.
	Snapshot *snapshotMeta `json:"snapshot,omitempty"`
	PerShard []shardStats  `json:"per_shard,omitempty"`
	// Tenant names the tenant this reply describes (multi-tenant mode
	// only; the fields above are always one tenant's view).
	Tenant string `json:"tenant,omitempty"`
	// Tenants and Aggregate summarize the whole registry; they are
	// attached only to the implicit default view (no tenant named) in
	// multi-tenant mode.
	Tenants   []tenantInfo    `json:"tenants,omitempty"`
	Aggregate *aggregateStats `json:"aggregate,omitempty"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Service) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/v1/assign", s.handleAssign)
	s.mux.HandleFunc("/v1/centers", getOnly(s.handleCenters))
	s.mux.HandleFunc("/v1/stats", getOnly(s.handleStats))
	s.mux.HandleFunc("/v1/replicate", s.handleReplicate)
	s.mux.HandleFunc("/v1/tenants", getOnly(s.handleTenants))
	s.mux.HandleFunc("/v1/healthz", getOnly(s.handleHealthz))
	s.mux.HandleFunc("/metrics", getOnly(s.handleMetrics))
	if s.cfg.Pprof {
		registerPprof(s.mux)
	}
	// Catch-all so unknown routes honor the JSON error contract instead of
	// the default text/plain 404 page.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "unknown route "+r.URL.Path)
	})
}

// getOnly guards a read-only handler: every method but GET gets 405.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		h(w, r)
	}
}

// writeJSON encodes v into a pooled buffer and sends it with writeBody, so
// the reply carries its Content-Length instead of going out chunked.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBodyBuf()
	defer putBodyBuf(buf)
	_ = json.NewEncoder(buf).Encode(v)
	writeBody(w, status, buf.Bytes())
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// requestTenant extracts the tenant name a request carries out-of-band:
// the routing header, or the ?tenant= query parameter. Empty means "the
// default tenant" (or, for POSTs, "check the body field").
func requestTenant(r *http.Request) string {
	if name := r.Header.Get(TenantHeader); name != "" {
		return name
	}
	return r.URL.Query().Get("tenant")
}

// mergeTenantName combines every way a request can name its tenant — the
// routing header, the ?tenant= query parameter and a body's in-band
// "tenant" field: any explicit disagreement is an error (a stale source
// silently losing would read or write the wrong tenant's data), and all
// empty means the default tenant.
func mergeTenantName(w http.ResponseWriter, r *http.Request, bodyName string) (string, bool) {
	hdr := r.Header.Get(TenantHeader)
	q := r.URL.Query().Get("tenant")
	if hdr != "" && q != "" && hdr != q {
		writeError(w, http.StatusBadRequest,
			"tenant header "+strconv.Quote(hdr)+" disagrees with query tenant "+strconv.Quote(q))
		return "", false
	}
	name := hdr
	if name == "" {
		name = q
	}
	switch {
	case name == "":
		name = bodyName
	case bodyName != "" && bodyName != name:
		writeError(w, http.StatusBadRequest,
			"tenant header "+strconv.Quote(name)+" disagrees with body tenant "+strconv.Quote(bodyName))
		return "", false
	}
	if name == "" {
		name = DefaultTenant
	}
	if !validTenantName(name) {
		writeError(w, http.StatusBadRequest, "invalid tenant name "+strconv.Quote(name))
		return "", false
	}
	return name, true
}

// resolve maps a tenant name to its tenant. It writes the error response
// itself and returns nil on failure: 409 for a quarantined tenant, and 404
// for an unknown name — unless create is set in multi-tenant mode, which
// creates the tenant with shape k/shards (0: the defaults) and answers 429
// past the MaxTenants cap, 409 for a racing creation of another shape and
// 503 while shutting down.
func (s *Service) resolve(w http.ResponseWriter, name string, create bool, k, shards int) *tenant {
	t, ok := s.lookup(name)
	var err error
	switch {
	case ok && t.failed == nil:
		return t
	case ok:
		err = t.failed
	case !create:
		writeError(w, http.StatusNotFound, "unknown tenant "+strconv.Quote(name))
		return nil
	case s.cfg.MaxTenants <= 0:
		writeError(w, http.StatusNotFound,
			"unknown tenant "+strconv.Quote(name)+" (multi-tenancy is not enabled)")
		return nil
	default:
		if t, err = s.createTenant(name, k, shards); err == nil {
			return t
		}
	}
	switch {
	case errors.Is(err, ErrTenantFailed):
		writeError(w, http.StatusConflict, "tenant "+strconv.Quote(name)+" unavailable: "+err.Error())
	case errors.Is(err, errTenantCap):
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, errTenantConflict):
		writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, errShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
	return nil
}

// resolveQuery resolves the tenant of a query endpoint (assign, centers,
// stats); queries never create tenants.
func (s *Service) resolveQuery(w http.ResponseWriter, name string) *tenant {
	return s.resolve(w, name, false, 0, 0)
}

// shapeHeaders parses the optional X-Kcenter-K / X-Kcenter-Shards pinning
// headers (0 = unspecified).
func shapeHeaders(w http.ResponseWriter, r *http.Request) (k, shards int, ok bool) {
	parse := func(h string) (int, bool) {
		v := r.Header.Get(h)
		if v == "" {
			return 0, true
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, h+" must be a positive integer, got "+strconv.Quote(v))
			return 0, false
		}
		return n, true
	}
	if k, ok = parse(TenantKHeader); !ok {
		return 0, 0, false
	}
	if shards, ok = parse(TenantShardsHeader); !ok {
		return 0, 0, false
	}
	return k, shards, true
}

// resolveIngest resolves the tenant of an ingest request, lazily creating
// an unknown one with the shape its X-Kcenter-K / X-Kcenter-Shards headers
// pin: 400 for a malformed header, 409 when an existing tenant has another
// shape, and otherwise resolve's answers.
func (s *Service) resolveIngest(w http.ResponseWriter, r *http.Request, name string) *tenant {
	wantK, wantShards, ok := shapeHeaders(w, r)
	if !ok {
		return nil
	}
	t := s.resolve(w, name, true, wantK, wantShards)
	switch {
	case t == nil:
	case wantK > 0 && wantK != t.k:
		writeError(w, http.StatusConflict,
			"tenant "+strconv.Quote(name)+" has k="+strconv.Itoa(t.k)+", request pins k="+strconv.Itoa(wantK))
		return nil
	case wantShards > 0 && wantShards != t.shards:
		writeError(w, http.StatusConflict,
			"tenant "+strconv.Quote(name)+" has shards="+strconv.Itoa(t.shards)+", request pins shards="+strconv.Itoa(wantShards))
		return nil
	}
	return t
}

// decodePoints decodes a points batch shared by ingest and assign and runs
// the batch-level checks: well-formed JSON, 1..MaxBatch points. Per-point
// validation happens in validatePoints once the tenant — whose pinned
// dimension is the reference — is known. It writes the error response
// itself and returns nil when the batch is rejected.
func (s *Service) decodePoints(w http.ResponseWriter, r *http.Request) *pointBatch {
	defer r.Body.Close()
	// Injectable decode failure (server.decode): an error rule models a
	// malformed request (400); a panic rule exercises the recovery
	// middleware in Handler.
	if err := s.cfg.Faults.Hit(fault.ServerDecode); err != nil {
		if errors.Is(err, fault.ErrInjected) {
			writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
			return nil
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return nil
	}
	// Cap the body BEFORE decoding so MaxBatch actually bounds memory: an
	// over-limit body must not be materialized just to be counted. 4 KiB
	// per allowed point (dozens of full-precision coordinates) plus fixed
	// slack is generous for any legitimate batch.
	limit := int64(s.cfg.MaxBatch)*4096 + 1<<20
	body := http.MaxBytesReader(w, r.Body, limit)
	buf := getBodyBuf()
	defer putBodyBuf(buf)
	if _, err := buf.ReadFrom(body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds "+strconv.FormatInt(limit, 10)+" bytes")
			return nil
		}
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return nil
	}
	b := getBatch()
	if err := b.decode(buf.Bytes()); err != nil {
		putBatch(b)
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return nil
	}
	n := b.count()
	if n == 0 {
		putBatch(b)
		writeError(w, http.StatusBadRequest, "empty batch: need at least one point")
		return nil
	}
	if n > s.cfg.MaxBatch {
		putBatch(b)
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch of "+strconv.Itoa(n)+" points exceeds max_batch="+strconv.Itoa(s.cfg.MaxBatch))
		return nil
	}
	return b
}

// validatePoints runs the per-point checks: every point non-empty with
// finite coordinates and a consistent dimension. wantDim > 0 additionally
// pins the dimension (the tenant's first-seen one); wantDim == 0 accepts
// the batch's own first row as the reference. It writes the error response
// itself and returns false when the batch is rejected.
func validatePoints(w http.ResponseWriter, b *pointBatch, wantDim int) bool {
	if b.ragged == nil {
		// The slab's rows share one non-zero dimension by construction.
		if wantDim > 0 && b.ds.Dim != wantDim {
			writeError(w, http.StatusBadRequest,
				"point 0 has dimension "+strconv.Itoa(b.ds.Dim)+", want "+strconv.Itoa(wantDim))
			return false
		}
		for j, v := range b.ds.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				writeError(w, http.StatusBadRequest, "point "+strconv.Itoa(j/b.ds.Dim)+" has a non-finite coordinate")
				return false
			}
		}
		return true
	}
	dim := wantDim
	for i, p := range b.ragged {
		if len(p) == 0 {
			writeError(w, http.StatusBadRequest, "point "+strconv.Itoa(i)+" is empty")
			return false
		}
		if dim == 0 {
			dim = len(p)
		}
		if len(p) != dim {
			writeError(w, http.StatusBadRequest,
				"point "+strconv.Itoa(i)+" has dimension "+strconv.Itoa(len(p))+", want "+strconv.Itoa(dim))
			return false
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				writeError(w, http.StatusBadRequest, "point "+strconv.Itoa(i)+" has a non-finite coordinate")
				return false
			}
		}
	}
	return true
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Trace the request's stages (nil, and free, without Telemetry).
	// Metrics attach once the tenant resolves; requests that fail before
	// that have no tenant to attribute to and are discarded on Finish.
	tr := obs.StartTrace(obs.RouteIngest, s.cfg.Telemetry)
	var trMetrics *obs.TenantMetrics
	var trTenant string
	defer func() { tr.Finish(trMetrics, trTenant, s.cfg.SlowRequest) }()
	batch := s.decodePoints(w, r)
	if batch == nil {
		return
	}
	// Batch-internal validation (consistent dimensions, finite
	// coordinates) needs no tenant state and runs BEFORE resolution, so a
	// garbage batch under a fresh tenant name is a plain 400 — it must not
	// lazily create a tenant and permanently consume a MaxTenants slot.
	if !validatePoints(w, batch, 0) {
		putBatch(batch)
		return
	}
	tr.Mark(obs.StageDecode)
	name, ok := mergeTenantName(w, r, batch.tenant)
	if !ok {
		putBatch(batch)
		return
	}
	t := s.resolveIngest(w, r, name)
	if t == nil {
		putBatch(batch)
		return
	}
	trMetrics, trTenant = t.metrics, t.name
	// A degraded tenant (quarantined after a contained worker/shard panic)
	// keeps answering queries from its last good snapshot but accepts no new
	// data — queued batches would be silently discarded, so refuse up front.
	if err := t.checkDegraded(); err != nil {
		putBatch(batch)
		writeError(w, http.StatusConflict, "tenant "+strconv.Quote(name)+" unavailable: "+err.Error())
		return
	}
	// Pin the tenant dimension on first contact; a concurrent first batch
	// of a different dimension loses the CAS and is re-validated against
	// the winner. (The batch is one slab, so its dimension is every
	// row's.)
	d := int64(batch.ds.Dim)
	if !t.dim.CompareAndSwap(0, d) && t.dim.Load() != d {
		putBatch(batch)
		writeError(w, http.StatusBadRequest,
			"batch dimension "+strconv.Itoa(int(d))+", want "+strconv.Itoa(t.dimInt()))
		return
	}
	n := batch.ds.N
	// The tenant-resolution span between decode and enqueue is nobody's
	// latency stage; drop it so queue_wait measures only the enqueue.
	tr.Skip()
	// enqueue transfers batch ownership to the tenant's queue; the ingest
	// worker recycles it after copying into the shard slabs.
	err := t.enqueue(r.Context(), batch)
	tr.Mark(obs.StageQueueWait) // ~0 with queue space, up to ShedAfter shed
	if err != nil {
		putBatch(batch)
		if errors.Is(err, errOverCapacity) {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	t.acceptedPoints.Add(int64(n))
	t.acceptedBatches.Add(1)
	rs := getReply(0)
	rs.buf = appendIngestAck(rs.buf[:0], ingestResponse{
		Accepted:       n,
		PendingBatches: t.pendingBatches.Load(),
		IngestedTotal:  t.ingestedPoints.Load(),
	})
	writeBody(w, http.StatusAccepted, rs.buf)
	putReply(rs)
	tr.Mark(obs.StageEncode)
}

func meta(qs *querySnapshot) snapshotMeta {
	return snapshotMeta{
		Version:    qs.version,
		Centers:    qs.res.Centers.N,
		Radius:     qs.res.Bound,
		LowerBound: qs.res.LowerBound,
		Ingested:   qs.res.Ingested,
	}
}

func (s *Service) handleAssign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	tr := obs.StartTrace(obs.RouteAssign, s.cfg.Telemetry)
	var trMetrics *obs.TenantMetrics
	var trTenant string
	defer func() { tr.Finish(trMetrics, trTenant, s.cfg.SlowRequest) }()
	batch := s.decodePoints(w, r)
	if batch == nil {
		return
	}
	defer putBatch(batch) // assign only reads the batch; recycle on every path
	tr.Mark(obs.StageDecode)
	name, ok := mergeTenantName(w, r, batch.tenant)
	if !ok {
		return
	}
	t := s.resolveQuery(w, name)
	if t == nil {
		return
	}
	trMetrics, trTenant = t.metrics, t.name
	dim := t.dimInt()
	if dim == 0 {
		writeError(w, http.StatusConflict, "no points ingested yet")
		return
	}
	tr.Skip() // tenant resolution: nobody's latency stage
	if !validatePoints(w, batch, dim) {
		return
	}
	tr.Mark(obs.StageDecode) // per-point validation accumulates into decode
	qs, err := t.snapshot()
	if err != nil {
		if errors.Is(err, ErrTenantFailed) {
			// Degraded with no snapshot ever cached: nothing to serve.
			writeError(w, http.StatusConflict, "tenant "+strconv.Quote(name)+" unavailable: "+err.Error())
			return
		}
		// Points accepted but none drained into a shard yet.
		writeError(w, http.StatusConflict, "no centers yet: "+err.Error())
		return
	}
	tr.Mark(obs.StageSnapshot)
	n := batch.ds.N
	rs := getReply(n)
	defer putReply(rs)
	evals := assign.NearestBatch(qs.res.Centers, qs.index, &batch.ds, rs.centers, rs.sqDists)
	tr.Mark(obs.StageKernel)
	t.assignRequests.Add(1)
	t.assignPoints.Add(int64(n))
	t.distEvals.Add(evals)
	writeAssign(w, rs, meta(qs))
	tr.Mark(obs.StageEncode)
}

// msgNotFinite is the 400 reply text of an assign whose reply would carry a
// value that is not finite.
const msgNotFinite = "a distance or bound is not finite: coordinates too large to assign"

// writeAssign writes the 200 assign reply for the kernel outputs in rs. A
// distance or bound that is not finite, such as a squared distance that
// overflows float64 for coordinates near 1e200, has no JSON form, so that
// request is answered 400 instead.
func writeAssign(w http.ResponseWriter, rs *replyScratch, m snapshotMeta) {
	var ok bool
	if rs.buf, ok = appendAssignReply(rs.buf[:0], m, rs.centers, rs.sqDists); !ok {
		writeError(w, http.StatusBadRequest, msgNotFinite)
		return
	}
	writeBody(w, http.StatusOK, rs.buf)
}

func (s *Service) handleCenters(w http.ResponseWriter, r *http.Request) {
	name, ok := mergeTenantName(w, r, "")
	if !ok {
		return
	}
	t := s.resolveQuery(w, name)
	if t == nil {
		return
	}
	qs, err := t.snapshot()
	if err != nil {
		if errors.Is(err, ErrTenantFailed) {
			writeError(w, http.StatusConflict, "tenant "+strconv.Quote(name)+" unavailable: "+err.Error())
			return
		}
		writeError(w, http.StatusConflict, "no centers yet: "+err.Error())
		return
	}
	centers := make([][]float64, qs.res.Centers.N)
	for i := range centers {
		centers[i] = append([]float64(nil), qs.res.Centers.At(i)...)
	}
	writeJSON(w, http.StatusOK, centersResponse{Snapshot: meta(qs), Centers: centers})
}

// info summarizes one tenant view for listings. The dimension, center
// count and center-set version are read live from the tenant's ingester
// under its per-shard read locks — cheap enough to call per request, never
// a merge.
func (v *tenantView) info() tenantInfo {
	t := v.t
	ti := tenantInfo{
		Name:            t.name,
		Status:          v.status,
		K:               t.k,
		Shards:          t.shards,
		CheckpointPath:  t.ckptPath,
		CreatedUnixNano: t.created.UnixNano(),
	}
	if v.err != nil {
		ti.Error = v.err.Error()
	}
	if v.status == "failed" {
		return ti
	}
	ti.Dim = t.dimInt()
	ti.IngestedPoints = v.IngestedPoints
	ti.AssignPoints = v.AssignPoints
	ti.CentersVersion = t.sh.CentersVersion()
	for _, sh := range t.sh.PerShardStats() {
		ti.Centers += sh.Centers
	}
	return ti
}

// tenantInfos lists the views, in their order (default first, then by
// name).
func tenantInfos(vs []tenantView) []tenantInfo {
	out := make([]tenantInfo, len(vs))
	for i := range vs {
		out[i] = vs[i].info()
	}
	return out
}

func (s *Service) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, tenantsResponse{
		MaxTenants: s.cfg.MaxTenants,
		Tenants:    tenantInfos(s.views()),
	})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	explicit := requestTenant(r)
	name, ok := mergeTenantName(w, r, "")
	if !ok {
		return
	}
	t := s.resolveQuery(w, name)
	if t == nil {
		return
	}
	v := t.view()
	resp := statsResponse{
		K:                      t.k,
		Shards:                 t.shards,
		Dim:                    t.dimInt(),
		UptimeSeconds:          time.Since(s.started).Seconds(),
		tenantCounters:         v.tenantCounters,
		LastCheckpointUnixNano: t.lastCkptUnix.Load(),
		LastCheckpointError:    t.lastCheckpointError(),
		DroppedPoints:          v.Dropped,
		Degraded:               v.err != nil,
	}
	if v.err != nil {
		resp.DegradedError = v.err.Error()
	}
	if t.restored != nil {
		resp.RestoredPoints = t.restored.Ingested
	}
	if m := t.metrics; m != nil {
		resp.IngestLatency = routeLatencyFrom(&m.Routes[obs.RouteIngest].Total)
		resp.AssignLatency = routeLatencyFrom(&m.Routes[obs.RouteAssign].Total)
	}
	resp.Replication = s.replicationBlock(t)
	// Per-shard state is read live (cheap per-shard read locks, no merge)
	// so its counters stay consistent with ingested_points above instead of
	// freezing at the last center change the way the cached snapshot does.
	if resp.IngestedPoints > 0 {
		for _, sh := range t.sh.PerShardStats() {
			resp.PerShard = append(resp.PerShard, shardStats{
				Ingested:  sh.Ingested,
				Centers:   sh.Centers,
				R:         sh.R,
				Doublings: sh.Merges,
			})
		}
	}
	// The snapshot block, by contrast, is the cached query view as it
	// stands: a stats read builds none, so polling stats merges nothing.
	if qs := t.snap.Load(); qs != nil {
		m := meta(qs)
		resp.Snapshot = &m
	}
	// Multi-tenant extras: name the tenant this reply describes, and give
	// the implicit default view the registry summary and aggregate totals.
	// Single-tenant mode attaches none of this, keeping the original wire
	// format byte for byte.
	if s.cfg.MaxTenants > 0 {
		resp.Tenant = t.name
		if explicit == "" {
			vs := s.views()
			agg := &aggregateStats{Tenants: len(vs), MaxTenants: s.cfg.MaxTenants}
			for _, tv := range vs {
				switch tv.status {
				case "failed":
					agg.FailedTenants++
					continue
				case "degraded":
					agg.DegradedTenants++
				}
				agg.AcceptedPoints += tv.AcceptedPoints
				agg.IngestedPoints += tv.IngestedPoints
				agg.AssignPoints += tv.AssignPoints
				agg.ShedPoints += tv.ShedPoints
				agg.DroppedPoints += tv.Dropped
			}
			resp.Tenants = tenantInfos(vs)
			resp.Aggregate = agg
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
