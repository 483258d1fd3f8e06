// Chaos experiment: mixed ingest+assign traffic while injected faults fire
// inside the serving stack — shard panics, ingest-worker delays, checkpoint
// fsync failures — asserting the robustness contract end to end: the
// process never dies, quiet tenants keep serving, the shed/degraded
// counters account for every lost point, and a post-chaos restart recovers
// the degraded tenant bit-identically from its last good checkpoint.

package harness

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"kcenter/internal/checkpoint"
	"kcenter/internal/fault"
	"kcenter/internal/metric"
	"kcenter/internal/server"
	"kcenter/internal/stream"
)

// ChaosSpec describes one chaos run.
type ChaosSpec struct {
	// K is the per-tenant center budget; Shards the per-tenant shard count
	// (0 means 4).
	K      int
	Shards int
	// Batch is the points per ingest request; 0 means 256.
	Batch int
	// QuietAssigns is how many sparse assign requests the quiet tenant
	// issues per phase (baseline, then during chaos); 0 means 200.
	QuietAssigns int
	// PanicAfter is how many shard messages are summarized under chaos
	// before the injected shard panic fires; 0 means 32.
	PanicAfter int
	// IngestDelay slows the victim's ingest worker per batch while faults
	// are armed, backing its queue up toward the shed watermark; 0 means
	// 2ms.
	IngestDelay time.Duration
}

// ChaosMeasurement is the outcome of one chaos run. The four assertions are
// enforced by RunChaos itself (it returns an error when one fails); the
// measurement reports what happened for the table.
type ChaosMeasurement struct {
	// QuietBaseP50/P99 and QuietChaosP50/P99: the quiet tenant's assign
	// latency (ms) before and during the fault storm.
	QuietBaseP50, QuietBaseP99   float64
	QuietChaosP50, QuietChaosP99 float64
	// Victim accounting, from its /v1/stats after the storm settled:
	// Accepted (202-acknowledged points), Summarized (points that reached a
	// shard summary), Dropped (points discarded by the quarantine),
	// Shed (429-rejected points), Rejected (409-refused points after the
	// tenant degraded).
	VictimAccepted, VictimSummarized, VictimDropped, VictimShed, VictimRejected int64
	// DegradeAfter is how long after the faults armed the victim's
	// quarantine was observed.
	DegradeAfter time.Duration
	// CheckpointErrors counts the injected checkpoint write failures that
	// were contained (surfaced as errors, disk state intact).
	CheckpointErrors int64
	// RestoredIngested / RestoredVersion describe the state the restarted
	// process recovered the victim from — equal to the last good
	// checkpoint's by the bit-identity assertion.
	RestoredIngested int64
	RestoredVersion  uint64
}

func fileHash(path string) ([32]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// RunChaos runs the chaos experiment over ds and enforces its four
// assertions, returning an error naming the first one that fails:
//
//  1. The process never dies: every request during the storm is answered
//     (the quiet tenant's probes all return 200, the health endpoint stays
//     live) even as shard panics, worker faults and checkpoint failures
//     fire.
//  2. Quiet tenants are unaffected: the quiet tenant stays active with
//     zero dropped points while its neighbor is being torn down.
//  3. The counters account for every lost point: after the storm drains,
//     accepted == summarized + dropped for the victim — no point vanishes
//     without being counted somewhere a client or operator can see.
//  4. A post-chaos restart recovers the victim bit-identically from its
//     last good checkpoint: the file never changed during the storm, and
//     the restarted process re-captures exactly the checkpointed state.
func RunChaos(ds *metric.Dataset, spec ChaosSpec) (ChaosMeasurement, error) {
	var m ChaosMeasurement
	shards := spec.Shards
	if shards <= 0 {
		shards = 4
	}
	batch := spec.Batch
	if batch <= 0 {
		batch = 256
	}
	quietAssigns := spec.QuietAssigns
	if quietAssigns <= 0 {
		quietAssigns = 200
	}
	panicAfter := spec.PanicAfter
	if panicAfter <= 0 {
		panicAfter = 32
	}
	delay := spec.IngestDelay
	if delay <= 0 {
		delay = 2 * time.Millisecond
	}

	dir, err := os.MkdirTemp("", "kcenter-chaos-")
	if err != nil {
		return m, err
	}
	defer os.RemoveAll(dir)
	ckptPath := filepath.Join(dir, "state.ckpt")
	victimPath := filepath.Join(dir, "state.ckpt.d", "victim.ckpt")
	// The storm's rules live on this run's Service alone: other Services in
	// the process (concurrent experiments, tests) never see them.
	faults := new(fault.Set)
	cfg := server.Config{
		K: spec.K, Shards: shards, MaxBatch: batch, MaxTenants: 4,
		QueueDepth: 4, ShedAfter: 10 * time.Millisecond,
		CheckpointPath: ckptPath, CheckpointInterval: time.Hour,
		Faults: faults,
	}
	n, err := startNode(cfg)
	if err != nil {
		return m, err
	}
	defer n.close() // after the explicit close below this only returns an ignored error
	victim, quiet := n.client("victim"), n.client("quiet")

	// Disjoint regions per tenant (as in the isolation experiment), plus a
	// small default-tenant seed so the final drain has a result to return.
	seedN := min(batch, ds.N)
	quietPts, quietBodies, err := quietWorld(ds, seedN)
	if err != nil {
		return m, err
	}
	if err := victim.warm(rows(ds, 0, seedN)); err != nil {
		return m, err
	}
	if err := quiet.warm(quietPts); err != nil {
		return m, err
	}
	if err := n.client("").warm(rows(ds, 0, 16)); err != nil {
		return m, err
	}

	// The last good checkpoint: everything after this must leave it intact.
	if err := n.svc.CheckpointNow(); err != nil {
		return m, fmt.Errorf("pre-chaos checkpoint: %w", err)
	}
	lastGood, err := checkpoint.Read(victimPath)
	if err != nil {
		return m, fmt.Errorf("read last good checkpoint: %w", err)
	}
	goodHash, err := fileHash(victimPath)
	if err != nil {
		return m, err
	}

	base, err := quietPhase(quiet, quietBodies, quietAssigns)
	if err != nil {
		return m, err
	}
	m.QuietBaseP50 = percentile(base, 0.50)
	m.QuietBaseP99 = percentile(base, 0.99)

	// Victim feed bodies: the rest of the data set in full batches, at most
	// 32 of them, round-robined.
	feedN := min((ds.N-seedN)/batch, 32) * batch
	if feedN <= 0 {
		return m, fmt.Errorf("chaos: dataset too small for a victim feed (n=%d)", ds.N)
	}
	victimBodies, err := batchBodies(ds, seedN, seedN+feedN, batch)
	if err != nil {
		return m, err
	}

	// Arm the storm: every further shard message beyond PanicAfter panics a
	// victim shard, the victim's ingest worker slows per batch (backing its
	// queue toward the shed watermark), and every checkpoint fsync fails.
	if err := faults.Arm(map[string]fault.Rule{
		fault.StreamShard:    {Mode: fault.ModePanic, After: int64(panicAfter)},
		fault.ServerIngest:   {Mode: fault.ModeDelay, Delay: delay},
		fault.CheckpointSync: {Mode: fault.ModeError},
	}); err != nil {
		return m, err
	}
	armedAt := time.Now()

	// The storm: one goroutine hammers the victim until the quiet phase
	// completes. tally records what every victim ingest response promised
	// (202 accepted, 429 shed, 409 refused after the quarantine), for the
	// feed and for the nudges after it alike.
	var cAccepted, cShed, cRejected int64
	tally := func(code int) error {
		switch code {
		case http.StatusAccepted:
			cAccepted += int64(batch)
		case http.StatusTooManyRequests:
			cShed += int64(batch)
		case http.StatusConflict: // quarantined: keep probing, it must stay refused
			cRejected += int64(batch)
		default:
			return fmt.Errorf("victim ingest: unexpected status %d", code)
		}
		return nil
	}
	stop := make(chan struct{})
	feedDone := make(chan error, 1)
	go func() {
		feed := n.client("victim")
		for round := 0; ; round++ {
			select {
			case <-stop:
				feedDone <- nil
				return
			default:
			}
			code, err := feed.post("/v1/ingest", victimBodies[round%len(victimBodies)])
			if err == nil {
				err = tally(code)
			}
			if err != nil {
				feedDone <- err
				return
			}
		}
	}()

	// Assertion 1 (first half): the quiet tenant's probes all answer 200
	// while the storm runs — quietPhase fails on any other status.
	chaos, qerr := quietPhase(quiet, quietBodies, quietAssigns)
	close(stop)
	if ferr := <-feedDone; ferr != nil {
		return m, ferr
	}
	if qerr != nil {
		return m, fmt.Errorf("quiet tenant failed during chaos: %w", qerr)
	}
	m.QuietChaosP50 = percentile(chaos, 0.50)
	m.QuietChaosP99 = percentile(chaos, 0.99)

	// The victim must have degraded (the shard panic is armed to fire well
	// inside the feed).
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := victim.stats()
		if err != nil {
			return m, err
		}
		if st.Degraded {
			break
		}
		if time.Now().After(deadline) {
			return m, fmt.Errorf("chaos: victim never degraded")
		}
		// Keep nudging: one more batch trips the armed panic if the feed
		// stopped before it fired. The feed has exited, so the nudge owns
		// the tally.
		code, err := victim.post("/v1/ingest", victimBodies[0])
		if err == nil {
			err = tally(code)
		}
		if err != nil {
			return m, err
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.DegradeAfter = time.Since(armedAt)

	// A checkpoint attempt under the storm must fail (the fsync fault) but
	// never corrupt the files on disk. The degraded victim is skipped by
	// contract — the injected failures land on its healthy siblings, whose
	// stats carry the error counter.
	if err := n.svc.CheckpointNow(); err == nil {
		return m, fmt.Errorf("chaos: checkpoint under fsync fault unexpectedly succeeded")
	}
	if dst, err := n.client("").stats(); err == nil {
		m.CheckpointErrors = dst.CheckpointErrors
	}
	faults.Disarm()

	// Let the backlog settle: the victim's queue drains (discarding) and
	// the shard channels empty into the dropped counter.
	var st stats
	for prev := int64(-1); ; {
		st, err = victim.stats()
		if err != nil {
			return m, err
		}
		if st.PendingBatches == 0 && st.DroppedPoints == prev {
			break
		}
		prev = st.DroppedPoints
		if time.Now().After(deadline) {
			return m, fmt.Errorf("chaos: victim backlog never settled (pending=%d)", st.PendingBatches)
		}
		time.Sleep(10 * time.Millisecond)
	}
	m.VictimAccepted = st.AcceptedPoints
	m.VictimSummarized = st.summarized()
	m.VictimDropped = st.DroppedPoints
	m.VictimShed = st.ShedPoints
	m.VictimRejected = cRejected

	// Assertion 1 (second half): the process is still live and ready.
	var hz struct {
		Live  bool `json:"live"`
		Ready bool `json:"ready"`
	}
	if err := n.client("").get("/v1/healthz", &hz); err != nil || !hz.Live || !hz.Ready {
		return m, fmt.Errorf("chaos: healthz after storm: live=%v ready=%v err=%v", hz.Live, hz.Ready, err)
	}

	// Assertion 2: the quiet tenant is untouched.
	qst, err := quiet.stats()
	if err != nil {
		return m, err
	}
	if qst.Degraded || qst.DroppedPoints != 0 {
		return m, fmt.Errorf("chaos: quiet tenant affected: degraded=%v dropped=%d", qst.Degraded, qst.DroppedPoints)
	}

	// Assertion 3: every accepted point is either in a shard summary or in
	// the dropped counter — and the client's own view of what was accepted
	// and shed matches the server's, so no response lied.
	if st.AcceptedPoints != m.VictimSummarized+st.DroppedPoints {
		return m, fmt.Errorf("chaos: accounting broken: accepted %d != summarized %d + dropped %d",
			st.AcceptedPoints, m.VictimSummarized, st.DroppedPoints)
	}
	if got := int64(seedN) + cAccepted; st.AcceptedPoints != got {
		return m, fmt.Errorf("chaos: server accepted %d points, clients were acknowledged for %d",
			st.AcceptedPoints, got)
	}
	if st.ShedPoints != cShed {
		return m, fmt.Errorf("chaos: server shed %d points, clients saw 429 for %d", st.ShedPoints, cShed)
	}

	// Assertion 4 (first half): the last good checkpoint never changed.
	h, err := fileHash(victimPath)
	if err != nil {
		return m, err
	}
	if h != goodHash {
		return m, fmt.Errorf("chaos: victim checkpoint file changed during the storm")
	}

	// Shut down (the degraded victim's contained shard failure surfaces
	// here, by contract) and restart over the same directory.
	if _, err := n.close(); err != nil && !errors.Is(err, stream.ErrShardFailed) {
		return m, fmt.Errorf("chaos: close: %w", err)
	}
	svc2, err := server.New(cfg)
	if err != nil {
		return m, fmt.Errorf("chaos: restart: %w", err)
	}
	defer svc2.Close(context.Background())

	// Assertion 4 (second half): the restart recovered the victim from the
	// last good checkpoint, and re-capturing the restored state reproduces
	// it bit-identically.
	var restored bool
	for _, r := range svc2.TenantRestores() {
		if r.Tenant == "victim" {
			restored = true
			m.RestoredIngested = r.Ingested
			m.RestoredVersion = r.CentersVersion
		}
	}
	if !restored {
		return m, fmt.Errorf("chaos: restart did not restore the victim")
	}
	if m.RestoredIngested != lastGood.Ingested || m.RestoredVersion != lastGood.CentersVersion {
		return m, fmt.Errorf("chaos: restored ingested=%d version=%d, last good checkpoint had %d/%d",
			m.RestoredIngested, m.RestoredVersion, lastGood.Ingested, lastGood.CentersVersion)
	}
	if err := svc2.CheckpointNow(); err != nil {
		return m, fmt.Errorf("chaos: post-restart checkpoint: %w", err)
	}
	recaptured, err := checkpoint.Read(victimPath)
	if err != nil {
		return m, err
	}
	if !reflect.DeepEqual(recaptured.State, lastGood.State) {
		return m, fmt.Errorf("chaos: re-captured state differs from the last good checkpoint")
	}
	return m, nil
}

func init() {
	registry = append(registry, Experiment{
		ID:    "chaos",
		Title: "Fault injection: victim tenant torn down under load, quiet tenant and checkpoints intact",
		Paper: "Not in the paper — extension: hardened failure handling for the serving layer",
		Run: func(cfg RunConfig, w io.Writer) error {
			cfg = cfg.withDefaults()
			n := cfg.scaled(100_000)
			ds := genGau(25)(n, cfg.Seed)
			fmt.Fprintf(w, "GAU k'=25 n=%d, k=25, shards=4; shard panic after 32 messages, 2ms worker delay, fsync always failing\n", n)
			m, err := RunChaos(ds, ChaosSpec{K: 25, Shards: 4, QuietAssigns: 400})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "quiet assign ms: baseline p50=%.3f p99=%.3f, during chaos p50=%.3f p99=%.3f\n",
				m.QuietBaseP50, m.QuietBaseP99, m.QuietChaosP50, m.QuietChaosP99)
			fmt.Fprintf(w, "victim: accepted=%d summarized=%d dropped=%d shed=%d refused-after-quarantine=%d (accepted == summarized + dropped)\n",
				m.VictimAccepted, m.VictimSummarized, m.VictimDropped, m.VictimShed, m.VictimRejected)
			fmt.Fprintf(w, "degraded %.0fms after faults armed; %d checkpoint write failures contained\n",
				float64(m.DegradeAfter.Microseconds())/1e3, m.CheckpointErrors)
			fmt.Fprintf(w, "restart recovered victim from last good checkpoint: ingested=%d centers-version=%d, state bit-identical\n",
				m.RestoredIngested, m.RestoredVersion)
			fmt.Fprintln(w, "all four chaos assertions passed")
			return nil
		},
	})
}
