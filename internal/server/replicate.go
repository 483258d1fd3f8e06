// Replication: gossiping exported clustering state between kcenter nodes.
//
// The wire unit is the checkpoint frame (internal/checkpoint Encode/Decode:
// magic, format version, CRC-32, JSON snapshot) carrying one tenant's
// stream.ShardedState — the same validated serialization the disk
// checkpoints use, so a replication payload inherits the full corruption
// discipline: a flipped bit, a truncation or a version skew is a typed
// error and a 4xx, never a half-merged state.
//
// Topology is push-based and symmetric: every node with -replicate-peers
// ships each tenant's locally-ingested state (ExportState: local shards
// only, never the remote states it folded — gossip is not transitive) to
// every peer whose last acknowledged version is stale, once per
// ReplicateInterval. The receiver folds the payload into the named tenant's
// ingester via stream.MergeState, whose per-origin latest-wins slots make
// delivery idempotent and order-independent; queries then serve the union
// summary through the ordinary snapshot cache, keyed by MergedVersion. A
// follower therefore serves /v1/assign and /v1/centers with no local ingest
// at all, within the sharded 10-approx bound — and promotes on primary
// failure by simply continuing to serve its last folded union.
//
// Failure containment quarantines the peer, never the tenant: a failed push
// backs the peer off under the same capped exponential backoff the
// checkpoint loop uses, while both nodes keep serving their last good
// summaries; a corrupt inbound payload is rejected whole, leaving
// MergedVersion unchanged.

package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kcenter/internal/checkpoint"
	"kcenter/internal/fault"
	"kcenter/internal/stream"
)

// OriginHeader names the pushing node on a /v1/replicate request: the key
// the receiver's per-origin merge slot uses. Required on every push.
const OriginHeader = "X-Kcenter-Origin"

// replicateMaxBody caps a /v1/replicate payload. States are O(shards·k·dim)
// regardless of ingest volume, so 64 MiB is orders of magnitude above any
// real state while still bounding a hostile request.
const replicateMaxBody = 64 << 20

// replicateClientTimeout bounds one push round-trip so a hung peer cannot
// wedge the push loop past its tick.
const replicateClientTimeout = 10 * time.Second

// originRecv is one remote origin's receive-side accounting on a tenant
// (guarded by tenant.repMu).
type originRecv struct {
	merges      int64  // folds MergeState applied (no-op re-deliveries included)
	rejects     int64  // pushes refused by validation
	lastUnix    int64  // wall clock of the last applied fold, unix nanos
	lastVersion uint64 // center-set version of the last applied state
	lastErr     string // most recent rejection, "" after a clean fold
}

// originStatus is one remote origin's entry in the stats replication block.
type originStatus struct {
	// Origin is the peer node's label (its -node-id).
	Origin string `json:"origin"`
	// Version is the folded state's center-set version; Centers and
	// Ingested describe the folded state itself. All zero for an origin
	// whose every push was rejected.
	Version  uint64 `json:"version,omitempty"`
	Centers  int    `json:"centers,omitempty"`
	Ingested int64  `json:"ingested,omitempty"`
	// Merges / Rejects count this origin's accepted and refused pushes.
	Merges  int64 `json:"merges"`
	Rejects int64 `json:"rejects,omitempty"`
	// LastError is the most recent rejection, cleared by a clean fold.
	LastError string `json:"last_error,omitempty"`
	// StalenessSeconds is how long ago the last applied state arrived — the
	// follower's lag behind this origin. 0 until a fold has applied.
	StalenessSeconds float64 `json:"staleness_seconds,omitempty"`
}

// peerStatus is one push target's entry in the stats replication block.
type peerStatus struct {
	URL string `json:"url"`
	// Pushes / Errors count completed and failed pushes across tenants.
	Pushes int64 `json:"pushes"`
	Errors int64 `json:"errors,omitempty"`
	// LastError is the most recent push failure, cleared by a success.
	LastError string `json:"last_error,omitempty"`
	// LastPushUnixNano is the wall clock of the last successful push.
	LastPushUnixNano int64 `json:"last_push_unix_nano,omitempty"`
	// Quarantined marks a peer currently backing off after failures; the
	// tenant itself keeps serving (and pushing to healthy peers).
	Quarantined bool `json:"quarantined,omitempty"`
}

// replicationStats is the /v1/stats "replication" block, attached only when
// the node pushes or has folded remote state, so replication-free replies
// stay byte-identical to the previous wire format.
type replicationStats struct {
	// NodeID is this node's origin label ("" on an unlabeled receiver).
	NodeID string `json:"node_id,omitempty"`
	// IntervalSeconds is the push period (omitted when not pushing).
	IntervalSeconds float64 `json:"interval_seconds,omitempty"`
	// Peers lists the push targets; Origins the remote states folded into
	// the tenant this reply describes.
	Peers   []peerStatus   `json:"peers,omitempty"`
	Origins []originStatus `json:"origins,omitempty"`
}

// replicateResponse acknowledges an applied (or idempotently re-delivered)
// push.
type replicateResponse struct {
	// Origin and Tenant echo what was folded where.
	Origin string `json:"origin"`
	Tenant string `json:"tenant"`
	// Version is the folded state's center-set version; MergedVersion the
	// receiving tenant's merged version after the fold (the pusher can
	// detect lost updates by watching it).
	Version       uint64 `json:"version"`
	MergedVersion uint64 `json:"merged_version"`
}

// replicaPeer is one push target's lifetime state.
type replicaPeer struct {
	url    string
	client *http.Client

	pushes     atomic.Int64
	errors     atomic.Int64
	lastOKUnix atomic.Int64
	lastErrMsg atomic.Value // string

	// mu guards the backoff state and the per-tenant acknowledged versions
	// (tenant name → CentersVersion the peer last accepted), which make
	// quiet tenants — and quiet periods — push nothing.
	mu         sync.Mutex
	sent       map[string]uint64
	failStreak int
	retryAt    time.Time
}

// newReplicaPeers builds the push targets; trailing slashes are trimmed so
// peer URLs compose with the /v1/replicate path either way the operator
// typed them.
func newReplicaPeers(urls []string) []*replicaPeer {
	client := &http.Client{Timeout: replicateClientTimeout}
	peers := make([]*replicaPeer, 0, len(urls))
	for _, u := range urls {
		peers = append(peers, &replicaPeer{
			url:    strings.TrimRight(u, "/"),
			client: client,
			sent:   make(map[string]uint64),
		})
	}
	return peers
}

func (p *replicaPeer) status() peerStatus {
	ps := peerStatus{
		URL:              p.url,
		Pushes:           p.pushes.Load(),
		Errors:           p.errors.Load(),
		LastPushUnixNano: p.lastOKUnix.Load(),
	}
	if msg, _ := p.lastErrMsg.Load().(string); msg != "" {
		ps.LastError = msg
	}
	p.mu.Lock()
	ps.Quarantined = !p.retryAt.IsZero() && time.Now().Before(p.retryAt)
	p.mu.Unlock()
	return ps
}

// replicateLoop periodically pushes every live tenant's exported state to
// every stale peer. Sibling of checkpointLoop: same lifecycle (s.done, s.wg),
// same version gating so quiet periods push nothing, same capped exponential
// backoff on failure — applied per peer, so one dead peer never delays the
// others and never touches the tenant.
func (s *Service) replicateLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ReplicateInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.replicateTick(time.Now())
		}
	}
}

// replicateTick runs one push round. The state is captured and encoded once
// per tenant per round (it is identical for every peer), then shipped to
// each peer whose acknowledged version is behind and whose backoff has
// expired.
func (s *Service) replicateTick(now time.Time) {
	for _, tn := range s.sortedTenants(healthy) {
		v := tn.sh.CentersVersion()
		var due []*replicaPeer
		for _, p := range s.peers {
			p.mu.Lock()
			ready := p.retryAt.IsZero() || !now.Before(p.retryAt)
			stale := p.sent[tn.name] < v
			p.mu.Unlock()
			if ready && stale {
				due = append(due, p)
			}
		}
		if len(due) == 0 {
			continue
		}
		snap := checkpoint.Capture(tn.sh, "")
		payload, err := checkpoint.Encode(snap)
		if err != nil {
			continue // capture of a live ingester always encodes; defensive
		}
		for _, p := range due {
			s.pushState(p, tn.name, snap.CentersVersion, payload, now)
		}
	}
}

// pushState ships one tenant's encoded state to one peer and records the
// outcome: success advances the peer's acknowledged version and clears its
// backoff; failure quarantines the peer under ckptBackoff until retryAt.
func (s *Service) pushState(p *replicaPeer, tenantName string, ver uint64, payload []byte, now time.Time) {
	err := func() error {
		// Injectable push failure (server.replicate.push): an error rule
		// models the network eating the request; a delay rule a slow link.
		if err := s.cfg.Faults.Hit(fault.ServerReplicatePush); err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, p.url+"/v1/replicate", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(OriginHeader, s.cfg.NodeID)
		req.Header.Set(TenantHeader, tenantName)
		resp, err := p.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("peer answered %s: %s", resp.Status, bytes.TrimSpace(body))
		}
		return nil
	}()
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.errors.Add(1)
		p.lastErrMsg.Store(err.Error())
		p.failStreak++
		p.retryAt = now.Add(ckptBackoff(s.cfg.ReplicateInterval, p.failStreak))
		return
	}
	p.pushes.Add(1)
	p.lastOKUnix.Store(now.UnixNano())
	p.lastErrMsg.Store("")
	p.failStreak = 0
	p.retryAt = time.Time{}
	if p.sent[tenantName] < ver {
		p.sent[tenantName] = ver
	}
}

// handleReplicate is POST /v1/replicate: one peer's checksummed state frame,
// folded into the named tenant. Every failure mode is a typed error and a
// well-formed 4xx with the tenant's merged state untouched — the never-half-
// merge contract FuzzDecodeReplicate pins.
func (s *Service) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	origin := r.Header.Get(OriginHeader)
	if origin == "" {
		writeError(w, http.StatusBadRequest, OriginHeader+" header required: pushes must name their origin node")
		return
	}
	if !validTenantName(origin) {
		writeError(w, http.StatusBadRequest, "invalid origin "+strconv.Quote(origin))
		return
	}
	name, ok := mergeTenantName(w, r, "")
	if !ok {
		return
	}
	defer r.Body.Close()
	// Injectable receive failure (server.replicate.recv): an error rule
	// models a payload corrupted in flight (rejected whole, 400); a panic
	// rule exercises the recovery middleware.
	if err := s.cfg.Faults.Hit(fault.ServerReplicateRecv); err != nil {
		if errors.Is(err, fault.ErrInjected) {
			writeError(w, http.StatusBadRequest, "replicate payload rejected: "+err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	body := http.MaxBytesReader(w, r.Body, replicateMaxBody)
	data, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"replicate payload exceeds "+strconv.FormatInt(replicateMaxBody, 10)+" bytes")
			return
		}
		writeError(w, http.StatusBadRequest, "reading replicate payload: "+err.Error())
		return
	}
	snap, err := checkpoint.Decode(data)
	if err != nil {
		// ErrCorrupt / ErrFormatVersion: reject whole, nothing was touched.
		writeError(w, http.StatusBadRequest, "replicate payload: "+err.Error())
		return
	}
	// Unknown tenants are created from the gossip alone, with the payload's
	// k. Shard count is deliberately not pinned from the payload: merge
	// folds remote shard summaries regardless of the local shard layout.
	t := s.resolve(w, name, true, snap.K, 0)
	if t == nil {
		return
	}
	if derr := t.checkDegraded(); derr != nil {
		writeError(w, http.StatusConflict, "tenant "+strconv.Quote(name)+" unavailable: "+derr.Error())
		return
	}
	// The server always clusters under euclidean distance; a state built
	// under another metric would silently corrupt the doubling invariants.
	if snap.Metric != "" && snap.Metric != "euclidean" {
		writeError(w, http.StatusConflict, "state built under metric "+strconv.Quote(snap.Metric)+", this node serves euclidean")
		return
	}
	if err := t.sh.MergeState(origin, &snap.State); err != nil {
		t.noteReplicate(origin, snap, err)
		if errors.Is(err, stream.ErrStateMismatch) {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Pin the tenant's serving dimensionality so a follower with no local
	// ingest answers /v1/assign; a conflicting pin is impossible here
	// because MergeState already rejected any state whose dimension
	// disagrees with the ingester's.
	if snap.Dim > 0 {
		t.dim.CompareAndSwap(0, int64(snap.Dim))
	}
	t.noteReplicate(origin, snap, nil)
	writeJSON(w, http.StatusOK, replicateResponse{
		Origin:        origin,
		Tenant:        t.name,
		Version:       snap.CentersVersion,
		MergedVersion: t.sh.MergedVersion(),
	})
}

// noteReplicate records one inbound push's outcome on the tenant's
// per-origin receive ledger (the staleness clock /v1/stats reports).
func (t *tenant) noteReplicate(origin string, snap *checkpoint.Snapshot, err error) {
	t.repMu.Lock()
	defer t.repMu.Unlock()
	if t.repRecv == nil {
		t.repRecv = make(map[string]*originRecv)
	}
	rec := t.repRecv[origin]
	if rec == nil {
		rec = &originRecv{}
		t.repRecv[origin] = rec
	}
	if err != nil {
		rec.rejects++
		rec.lastErr = err.Error()
		return
	}
	rec.merges++
	rec.lastErr = ""
	rec.lastUnix = time.Now().UnixNano()
	if snap != nil && rec.lastVersion < snap.CentersVersion {
		rec.lastVersion = snap.CentersVersion
	}
}

// originStatuses reports the tenant's folded remote origins joined with the
// receive ledger, sorted by origin. Origins whose every push was rejected
// still appear (with no state fields), so an operator sees the refusals.
func (t *tenant) originStatuses(now time.Time) []originStatus {
	if t.sh == nil {
		return nil // a failed tenant owns no ingester, so no remote state
	}
	states := t.sh.RemoteStates()
	t.repMu.Lock()
	defer t.repMu.Unlock()
	if len(states) == 0 && len(t.repRecv) == 0 {
		return nil
	}
	out := make([]originStatus, 0, len(states))
	seen := make(map[string]bool, len(states))
	for _, rs := range states {
		os := originStatus{
			Origin:   rs.Origin,
			Version:  rs.Version,
			Centers:  rs.Centers,
			Ingested: rs.Ingested,
		}
		if rec := t.repRecv[rs.Origin]; rec != nil {
			os.Merges = rec.merges
			os.Rejects = rec.rejects
			os.LastError = rec.lastErr
			if rec.lastUnix > 0 {
				os.StalenessSeconds = now.Sub(time.Unix(0, rec.lastUnix)).Seconds()
			}
		}
		seen[rs.Origin] = true
		out = append(out, os)
	}
	for origin, rec := range t.repRecv {
		if seen[origin] {
			continue
		}
		out = append(out, originStatus{
			Origin:    origin,
			Merges:    rec.merges,
			Rejects:   rec.rejects,
			LastError: rec.lastErr,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
}

// replicationBlock builds the /v1/stats replication block for one tenant;
// nil when the node neither pushes, carries a node id, nor has folded any
// remote state — so replication-free replies stay byte-identical.
func (s *Service) replicationBlock(t *tenant) *replicationStats {
	origins := t.originStatuses(time.Now())
	if len(s.peers) == 0 && len(origins) == 0 && s.cfg.NodeID == "" {
		return nil
	}
	rs := &replicationStats{NodeID: s.cfg.NodeID, Origins: origins}
	if len(s.peers) > 0 {
		rs.IntervalSeconds = s.cfg.ReplicateInterval.Seconds()
		rs.Peers = make([]peerStatus, 0, len(s.peers))
		for _, p := range s.peers {
			rs.Peers = append(rs.Peers, p.status())
		}
	}
	return rs
}
