// Replication tests: a leader's push loop feeding a follower that serves
// queries with zero local ingest, bidirectional gossip converging to
// byte-identical centers, idempotent redelivery, the wholesale-rejection
// contract (every refused push leaves the merged state untouched), lazy
// follower tenant materialization, and failure containment — injected push
// and receive faults, plus mid-push connection drops, must quarantine the
// peer while both nodes keep serving their last good summaries.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"kcenter/internal/checkpoint"
	"kcenter/internal/fault"
	"kcenter/internal/stream"
)

// buildFrame clusters pts on a throwaway ingester and returns the encoded
// checkpoint frame a pushing peer would ship.
func buildFrame(t *testing.T, k, shards int, origin, metricName string, pts [][]float64) []byte {
	t.Helper()
	donor, err := stream.NewSharded(stream.ShardedConfig{K: k, Shards: shards, Origin: origin})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := donor.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := donor.Finish(); err != nil {
		t.Fatal(err)
	}
	frame, err := checkpoint.Encode(checkpoint.Capture(donor, metricName))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// postFrame drives one replicate push against the in-process handler.
func postFrame(svc *Service, origin, tenant string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/replicate", body)
	req.Header.Set("Content-Type", "application/octet-stream")
	if origin != "" {
		req.Header.Set(OriginHeader, origin)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	return rec
}

func centersJSON(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	var cr centersResponse
	if resp := getJSON(t, ts, path, &cr); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	b, err := json.Marshal(cr.Centers)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplicatePushFollowerServes is the tentpole path end to end: a leader
// with -replicate-peers gossips its state to a follower that never ingested
// a point, and the follower serves /v1/centers and /v1/assign against the
// folded summary — with the leader's centers exactly (same union, same
// sorted-origin merge order). Both sides surface the replication telemetry.
func TestReplicatePushFollowerServes(t *testing.T) {
	follower := newTestService(t, Config{K: 8, Shards: 2, NodeID: "b"})
	tsF := httptest.NewServer(follower.Handler())
	defer tsF.Close()
	leader := newTestService(t, Config{
		K: 8, Shards: 2, NodeID: "a",
		ReplicatePeers:    []string{tsF.URL},
		ReplicateInterval: 20 * time.Millisecond,
	})
	tsL := httptest.NewServer(leader.Handler())
	defer tsL.Close()

	pts := genPoints(400, 11)
	ingestAll(t, tsL, leader, pts, 100)
	vL := leader.tenant.sh.CentersVersion()
	waitFor(t, "follower folded leader state", func() bool {
		rs := follower.tenant.sh.RemoteStates()
		return len(rs) == 1 && rs[0].Origin == "a" && rs[0].Version >= vL
	})

	// Same union, same deterministic merge order: byte-identical centers.
	if lc, fc := centersJSON(t, tsL, "/v1/centers"), centersJSON(t, tsF, "/v1/centers"); !bytes.Equal(lc, fc) {
		t.Fatalf("follower centers diverge from leader\nleader:   %s\nfollower: %s", lc, fc)
	}

	// The follower assigns queries with zero local ingest.
	resp, body := postJSON(t, tsF, "/v1/assign", assignRequest{Points: pts[:25]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower assign: %d %s", resp.StatusCode, body)
	}
	var ar assignResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Assignments) != 25 {
		t.Fatalf("follower assigned %d of 25 points", len(ar.Assignments))
	}
	if follower.tenant.ingestedPoints.Load() != 0 {
		t.Fatalf("follower unexpectedly ingested %d points", follower.tenant.ingestedPoints.Load())
	}

	// Leader stats: the peer pushed and is not quarantined. The fold lands
	// on the follower before the pusher books the success, so wait for it.
	waitFor(t, "leader booked the push", func() bool { return leader.peers[0].pushes.Load() >= 1 })
	var ls statsResponse
	getJSON(t, tsL, "/v1/stats", &ls)
	if ls.Replication == nil || len(ls.Replication.Peers) != 1 {
		t.Fatalf("leader stats missing replication peers: %+v", ls.Replication)
	}
	if p := ls.Replication.Peers[0]; p.Pushes < 1 || p.Quarantined {
		t.Fatalf("leader peer status: %+v", p)
	}
	if ls.Replication.NodeID != "a" || ls.Replication.IntervalSeconds <= 0 {
		t.Fatalf("leader replication block: %+v", ls.Replication)
	}

	// Follower stats: origin "a" folded, with a live staleness clock.
	var fs statsResponse
	getJSON(t, tsF, "/v1/stats", &fs)
	if fs.Replication == nil || len(fs.Replication.Origins) != 1 {
		t.Fatalf("follower stats missing replication origins: %+v", fs.Replication)
	}
	if o := fs.Replication.Origins[0]; o.Origin != "a" || o.Merges < 1 || o.Version < vL || o.StalenessSeconds < 0 {
		t.Fatalf("follower origin status: %+v", o)
	}
	if fs.Dim != 2 {
		t.Fatalf("follower dim not pinned by merge: %d", fs.Dim)
	}

	// Both expositions carry the replication families.
	for ts, want := range map[*httptest.Server]string{
		tsL: "kcenter_replicate_peer_pushes_total",
		tsF: "kcenter_tenant_replicate_merges_total",
	} {
		r, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if !bytes.Contains(b, []byte(want)) {
			t.Fatalf("metrics missing %s", want)
		}
	}
}

// TestReplicateBidirectionalConverges feeds two nodes disjoint halves of a
// stream while each pushes to the other; once gossip quiesces the two serve
// byte-identical centers over the union — the merge algebra's convergence
// guarantee observed over real HTTP.
func TestReplicateBidirectionalConverges(t *testing.T) {
	// B's URL must exist before A is configured and vice versa: park each
	// side behind an atomically-swappable handler.
	var ha, hb atomic.Value // http.Handler
	hold := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "not up yet", http.StatusServiceUnavailable)
	})
	ha.Store(http.Handler(hold))
	hb.Store(http.Handler(hold))
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ha.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer tsA.Close()
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hb.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer tsB.Close()

	mk := func(id, peer string) *Service {
		return newTestService(t, Config{
			K: 8, Shards: 2, NodeID: id,
			ReplicatePeers:    []string{peer},
			ReplicateInterval: 20 * time.Millisecond,
		})
	}
	a := mk("a", tsB.URL)
	b := mk("b", tsA.URL)
	ha.Store(a.Handler())
	hb.Store(b.Handler())

	pts := genPoints(600, 23)
	ingestAll(t, tsA, a, pts[:300], 100)
	ingestAll(t, tsB, b, pts[300:], 100)

	va, vb := a.tenant.sh.CentersVersion(), b.tenant.sh.CentersVersion()
	folded := func(s *Service, origin string, v uint64) bool {
		for _, rs := range s.tenant.sh.RemoteStates() {
			if rs.Origin == origin && rs.Version >= v {
				return true
			}
		}
		return false
	}
	waitFor(t, "bidirectional gossip quiescence", func() bool {
		return folded(a, "b", vb) && folded(b, "a", va)
	})

	ca, cb := centersJSON(t, tsA, "/v1/centers"), centersJSON(t, tsB, "/v1/centers")
	if !bytes.Equal(ca, cb) {
		t.Fatalf("peers did not converge\na: %s\nb: %s", ca, cb)
	}
	var cr centersResponse
	if err := json.Unmarshal([]byte("{\"centers\":"+string(ca)+"}"), &cr); err == nil && len(cr.Centers) == 0 {
		t.Fatal("converged on an empty center set")
	}
}

// TestReplicateIdempotentRedelivery re-posts the same frame: the second
// delivery is a 200 no-op (latest-wins slot), and the merged version does
// not move again.
func TestReplicateIdempotentRedelivery(t *testing.T) {
	svc := newTestService(t, Config{K: 8, Shards: 2})
	frame := buildFrame(t, 8, 2, "peer", "", genPoints(200, 5))

	if rec := postFrame(svc, "peer", "", bytes.NewReader(frame)); rec.Code != http.StatusOK {
		t.Fatalf("first delivery: %d %s", rec.Code, rec.Body.String())
	}
	v1 := svc.tenant.sh.MergedVersion()
	rec := postFrame(svc, "peer", "", bytes.NewReader(frame))
	if rec.Code != http.StatusOK {
		t.Fatalf("redelivery: %d %s", rec.Code, rec.Body.String())
	}
	if v2 := svc.tenant.sh.MergedVersion(); v2 != v1 {
		t.Fatalf("redelivery moved merged version %d -> %d", v1, v2)
	}
	var rr replicateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Origin != "peer" || rr.MergedVersion != v1 {
		t.Fatalf("redelivery ack: %+v", rr)
	}
	if os := svc.tenant.originStatuses(time.Now()); len(os) != 1 || os[0].Merges != 2 {
		t.Fatalf("origin ledger after redelivery: %+v", os)
	}
}

// TestReplicateRejectionMapping drives every refusal path and pins the two
// halves of the contract: the documented status code, and never-half-merge
// (the tenant's merged version is identical before and after the refusal).
func TestReplicateRejectionMapping(t *testing.T) {
	svc := newTestService(t, Config{K: 8, Shards: 2, NodeID: "b"})
	pts := genPoints(200, 5)
	good := buildFrame(t, 8, 2, "peer", "", pts)
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)/2] ^= 0x40
	wrongK := buildFrame(t, 9, 2, "peer", "", pts)
	wrongMetric := buildFrame(t, 8, 2, "peer", "manhattan", pts)

	cases := []struct {
		name   string
		origin string
		body   io.Reader
		want   int
	}{
		{"missing origin", "", bytes.NewReader(good), http.StatusBadRequest},
		{"invalid origin", "no spaces allowed", bytes.NewReader(good), http.StatusBadRequest},
		{"self origin", "b", bytes.NewReader(good), http.StatusConflict},
		{"corrupt frame", "peer", bytes.NewReader(corrupt), http.StatusBadRequest},
		{"truncated frame", "peer", bytes.NewReader(good[:len(good)/3]), http.StatusBadRequest},
		{"not a frame", "peer", bytes.NewReader([]byte(`{"k":8}`)), http.StatusBadRequest},
		{"k mismatch", "peer", bytes.NewReader(wrongK), http.StatusConflict},
		{"metric mismatch", "peer", bytes.NewReader(wrongMetric), http.StatusConflict},
	}
	for _, tc := range cases {
		vbefore := svc.tenant.sh.MergedVersion()
		rec := postFrame(svc, tc.origin, "", tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s: non-JSON error body %q", tc.name, rec.Body.String())
		}
		if v := svc.tenant.sh.MergedVersion(); v != vbefore {
			t.Errorf("%s: half-merge, version %d -> %d", tc.name, vbefore, v)
		}
	}

	if !testing.Short() {
		// An over-limit payload is a 413, cut off at the cap rather than
		// buffered without bound.
		vbefore := svc.tenant.sh.MergedVersion()
		huge := io.MultiReader(bytes.NewReader(good), &zeroReader{n: replicateMaxBody})
		if rec := postFrame(svc, "peer", "", huge); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize: status %d, want 413", rec.Code)
		}
		if v := svc.tenant.sh.MergedVersion(); v != vbefore {
			t.Errorf("oversize: half-merge, version %d -> %d", vbefore, v)
		}
	}

	// After every refusal, a good frame still folds: the tenant was never
	// quarantined by its peer's garbage.
	if rec := postFrame(svc, "peer", "", bytes.NewReader(good)); rec.Code != http.StatusOK {
		t.Fatalf("good frame after refusals: %d %s", rec.Code, rec.Body.String())
	}
	// The ledger records both origins: "peer" with its k-mismatch refusal
	// cleared by the clean fold, and "b" (the self-push) rejected-only.
	byOrigin := map[string]originStatus{}
	for _, os := range svc.tenant.originStatuses(time.Now()) {
		byOrigin[os.Origin] = os
	}
	if os := byOrigin["peer"]; os.Merges != 1 || os.Rejects == 0 || os.LastError != "" {
		t.Fatalf("peer ledger after refusals: %+v", os)
	}
	if os := byOrigin["b"]; os.Merges != 0 || os.Rejects != 1 || os.LastError == "" {
		t.Fatalf("self-origin ledger after refusals: %+v", os)
	}
}

// zeroReader yields n zero bytes.
type zeroReader struct{ n int64 }

func (z *zeroReader) Read(p []byte) (int, error) {
	if z.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > z.n {
		p = p[:z.n]
	}
	for i := range p {
		p[i] = 0
	}
	z.n -= int64(len(p))
	return len(p), nil
}

// TestReplicateLazyTenantCreation: a multi-tenant follower materializes a
// tenant it has never heard of from the gossip alone, shaped by the payload,
// and serves it; with multi-tenancy disabled the same push is a 404.
func TestReplicateLazyTenantCreation(t *testing.T) {
	// Built directly rather than via newTestService: neither service ever
	// ingests into its default tenant, so Close reporting ErrEmpty for it
	// is the expected idle-shutdown outcome, not a failure.
	closeEmpty := func(s *Service) {
		if _, err := s.Close(context.Background()); err != nil && !errors.Is(err, stream.ErrEmpty) {
			t.Errorf("close: %v", err)
		}
	}
	svc, err := New(Config{K: 4, Shards: 2, MaxTenants: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer closeEmpty(svc)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	frame := buildFrame(t, 8, 3, "peer", "", genPoints(200, 5))
	if rec := postFrame(svc, "peer", "ghost", bytes.NewReader(frame)); rec.Code != http.StatusOK {
		t.Fatalf("lazy-create push: %d %s", rec.Code, rec.Body.String())
	}
	gt, ok := svc.lookup("ghost")
	if !ok {
		t.Fatal("tenant not materialized")
	}
	// Shape comes from the payload (k=8), not the service default (k=4).
	if gt.sh.CentersVersion() != 0 {
		t.Fatalf("materialized tenant has local state: version %d", gt.sh.CentersVersion())
	}
	var cr centersResponse
	if resp := getJSON(t, ts, "/v1/centers?tenant=ghost", &cr); resp.StatusCode != http.StatusOK {
		t.Fatalf("ghost centers: %d", resp.StatusCode)
	}
	if len(cr.Centers) == 0 || len(cr.Centers) > 8 {
		t.Fatalf("ghost serves %d centers, want 1..8", len(cr.Centers))
	}

	single, err := New(Config{K: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer closeEmpty(single)
	if rec := postFrame(single, "peer", "ghost", bytes.NewReader(frame)); rec.Code != http.StatusNotFound {
		t.Fatalf("single-tenant push to named tenant: %d, want 404", rec.Code)
	}
}

// TestReplicatePushFaultQuarantinesPeer arms server.replicate.push: pushes
// fail, the peer backs off (quarantined in stats), and — the containment
// contract — the tenant itself keeps ingesting and serving, while the
// follower keeps serving its last folded state. Disarming recovers the peer
// and the follower catches up.
func TestReplicatePushFaultQuarantinesPeer(t *testing.T) {
	faults := new(fault.Set)
	follower := newTestService(t, Config{K: 8, Shards: 2})
	tsF := httptest.NewServer(follower.Handler())
	defer tsF.Close()
	leader := newTestService(t, Config{
		K: 8, Shards: 2, NodeID: "a",
		ReplicatePeers:    []string{tsF.URL},
		ReplicateInterval: 20 * time.Millisecond,
		Faults:            faults,
	})
	tsL := httptest.NewServer(leader.Handler())
	defer tsL.Close()

	pts := genPoints(600, 31)
	ingestAll(t, tsL, leader, pts[:300], 100)
	v1 := leader.tenant.sh.CentersVersion()
	waitFor(t, "initial fold", func() bool {
		rs := follower.tenant.sh.RemoteStates()
		return len(rs) == 1 && rs[0].Version >= v1
	})
	lastGood := centersJSON(t, tsF, "/v1/centers")

	if err := faults.Arm(map[string]fault.Rule{
		fault.ServerReplicatePush: {Mode: fault.ModeError},
	}); err != nil {
		t.Fatal(err)
	}
	// New local state cannot propagate while the fault is armed. The wave
	// is displaced so it must grow the center set, making a fresh push due.
	ingestAll(t, tsL, leader, shift(pts[300:], 5000), 100)
	waitFor(t, "second wave drained", func() bool { return leader.tenant.ingestedPoints.Load() >= 600 })
	if v := leader.tenant.sh.CentersVersion(); v <= v1 {
		t.Fatalf("displaced wave did not move the center set: version %d -> %d", v1, v)
	}
	peer := leader.peers[0]
	waitFor(t, "push failures recorded", func() bool { return peer.errors.Load() >= 1 })
	var ls statsResponse
	getJSON(t, tsL, "/v1/stats", &ls)
	if p := ls.Replication.Peers[0]; !p.Quarantined || p.Errors < 1 || p.LastError == "" {
		t.Fatalf("peer not quarantined under push fault: %+v", p)
	}
	// Quarantine hits the peer, not the tenant: the leader still serves.
	if resp, body := postJSON(t, tsL, "/v1/assign", assignRequest{Points: pts[:10]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader assign under push fault: %d %s", resp.StatusCode, body)
	}
	// The follower keeps serving the last good summary.
	if got := centersJSON(t, tsF, "/v1/centers"); !bytes.Equal(got, lastGood) {
		t.Fatalf("follower state moved while pushes failed\nbefore: %s\nafter:  %s", lastGood, got)
	}

	faults.Disarm()
	v2 := leader.tenant.sh.CentersVersion()
	waitFor(t, "recovery fold after disarm", func() bool {
		rs := follower.tenant.sh.RemoteStates()
		return len(rs) == 1 && rs[0].Version >= v2
	})
	// The fold lands on the follower before the pusher books the success,
	// so poll the peer status rather than reading it once.
	waitFor(t, "peer status recovered", func() bool {
		p := peer.status()
		return !p.Quarantined && p.LastError == "" && p.Pushes >= 2
	})
}

// TestReplicateRecvFaultRejectsWholesale arms server.replicate.recv on the
// receiving side: every inbound push is refused as corrupt (400), the
// refusals land on the origin ledger, and the follower's folded state —
// and what it serves — never moves. The pushing peer sees the 400s and
// backs off; the leader tenant stays healthy.
func TestReplicateRecvFaultRejectsWholesale(t *testing.T) {
	faults := new(fault.Set)
	follower := newTestService(t, Config{K: 8, Shards: 2, Faults: faults})
	tsF := httptest.NewServer(follower.Handler())
	defer tsF.Close()
	leader := newTestService(t, Config{
		K: 8, Shards: 2, NodeID: "a",
		ReplicatePeers:    []string{tsF.URL},
		ReplicateInterval: 20 * time.Millisecond,
	})
	tsL := httptest.NewServer(leader.Handler())
	defer tsL.Close()

	pts := genPoints(600, 43)
	ingestAll(t, tsL, leader, pts[:300], 100)
	v1 := leader.tenant.sh.CentersVersion()
	waitFor(t, "initial fold", func() bool {
		rs := follower.tenant.sh.RemoteStates()
		return len(rs) == 1 && rs[0].Version >= v1
	})
	lastGood := centersJSON(t, tsF, "/v1/centers")
	vbefore := follower.tenant.sh.MergedVersion()

	if err := faults.Arm(map[string]fault.Rule{
		fault.ServerReplicateRecv: {Mode: fault.ModeError},
	}); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, tsL, leader, shift(pts[300:], 5000), 100)
	waitFor(t, "second wave drained", func() bool { return leader.tenant.ingestedPoints.Load() >= 600 })
	// The receiver answers 400 before touching the tenant; the pusher books
	// each refusal as a push failure.
	waitFor(t, "pusher sees the 400s", func() bool { return leader.peers[0].errors.Load() >= 1 })
	// Rejected whole: nothing folded, last good summary still serves.
	if v := follower.tenant.sh.MergedVersion(); v != vbefore {
		t.Fatalf("recv fault half-merged: version %d -> %d", vbefore, v)
	}
	if got := centersJSON(t, tsF, "/v1/centers"); !bytes.Equal(got, lastGood) {
		t.Fatal("follower served different centers after rejected pushes")
	}
	if p := leader.peers[0].status(); p.LastError == "" {
		t.Fatalf("push failure cause not surfaced: %+v", p)
	}

	faults.Disarm()
	v2 := leader.tenant.sh.CentersVersion()
	waitFor(t, "convergence after disarm", func() bool {
		rs := follower.tenant.sh.RemoteStates()
		return len(rs) == 1 && rs[0].Version >= v2
	})
	var fs statsResponse
	getJSON(t, tsF, "/v1/stats", &fs)
	if o := fs.Replication.Origins[0]; o.LastError != "" || o.Merges < 2 {
		t.Fatalf("origin ledger after recovery: %+v", o)
	}
}

// TestReplicateMidPushDropQuarantinesPeerOnly points a leader at a peer that
// accepts the TCP connection and then drops it mid-request: every push dies
// on the wire, the peer is quarantined under backoff, and the leader's
// tenant never notices.
func TestReplicateMidPushDropQuarantinesPeerOnly(t *testing.T) {
	drop := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("test server not hijackable")
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close() // mid-request connection drop
	}))
	defer drop.Close()

	leader := newTestService(t, Config{
		K: 8, Shards: 2, NodeID: "a",
		ReplicatePeers:    []string{drop.URL},
		ReplicateInterval: 20 * time.Millisecond,
	})
	tsL := httptest.NewServer(leader.Handler())
	defer tsL.Close()

	pts := genPoints(300, 59)
	ingestAll(t, tsL, leader, pts, 100)
	peer := leader.peers[0]
	waitFor(t, "dropped pushes recorded", func() bool { return peer.errors.Load() >= 2 })

	var ls statsResponse
	getJSON(t, tsL, "/v1/stats", &ls)
	if p := ls.Replication.Peers[0]; p.Pushes != 0 || p.Errors < 2 || p.LastError == "" {
		t.Fatalf("drop peer status: %+v", p)
	}
	// Backoff grows with the streak: after ≥2 failures the retry horizon is
	// at least one interval out.
	peer.mu.Lock()
	streak, retryAt := peer.failStreak, peer.retryAt
	peer.mu.Unlock()
	if streak < 2 || retryAt.IsZero() {
		t.Fatalf("no backoff after drops: streak=%d retryAt=%v", streak, retryAt)
	}
	// The tenant is untouched: healthy, serving, not degraded.
	if leader.tenant.checkDegraded() != nil {
		t.Fatalf("tenant degraded by peer drops: %v", leader.tenant.checkDegraded())
	}
	if resp, body := postJSON(t, tsL, "/v1/assign", assignRequest{Points: pts[:10]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader assign with dropping peer: %d %s", resp.StatusCode, body)
	}
}

// BenchmarkReplicateMerge measures the receive-side cost of one push at
// shards·k scale: decoding the checkpoint frame and folding the state
// through MergeState's full validation (the steady-state redelivery path a
// follower pays once per gossip tick per origin).
func BenchmarkReplicateMerge(b *testing.B) {
	donor, err := stream.NewSharded(stream.ShardedConfig{K: 64, Shards: 8, Origin: "peer"})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range genPoints(20000, 3) {
		if err := donor.Push(p); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := donor.Finish(); err != nil {
		b.Fatal(err)
	}
	frame, err := checkpoint.Encode(checkpoint.Capture(donor, ""))
	if err != nil {
		b.Fatal(err)
	}
	recv, err := stream.NewSharded(stream.ShardedConfig{K: 64, Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := checkpoint.Decode(frame)
		if err != nil {
			b.Fatal(err)
		}
		if err := recv.MergeState("peer", &snap.State); err != nil {
			b.Fatal(err)
		}
	}
}
