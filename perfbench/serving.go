package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kcenter/internal/assign"
	"kcenter/internal/core"
	"kcenter/internal/metric"
	"kcenter/internal/stream"
)

// servingWorkload shapes one closed-loop traffic mix against
// `kcenter serve -k 50 -shards 2`.
type servingWorkload struct {
	name string
	// drift is how far (plane units) each cluster mean moves per million
	// stream points; 0 keeps the clustering static after warm-up.
	drift float64
	// warm points are ingested during set-up, in warmBatch-point bodies.
	warm int
	// queriers is the number of closed-loop /v1/assign clients.
	queriers int
	// producer adds one closed-loop /v1/ingest client continuing the stream.
	producer bool
}

var (
	assignWorkload = servingWorkload{name: "assign", warm: 1_000_000, queriers: 2}
	mixedWorkload  = servingWorkload{name: "mixed", drift: 20, warm: 1_000_000, queriers: 1, producer: true}
)

const (
	warmBatch   = 4096
	ingestBatch = 1024
	// sampleEvery: every sampleEvery-th assign reply is kept for a
	// brute-force recheck against the centers read at the end of its chunk.
	sampleEvery = 20
)

// ingestSource produces the producer's bodies, continuing the stream the
// warm-up started. Bodies are encoded on the fly with a fixed-point
// formatter (about a tenth of the server's decode cost per body), because
// a run's worth of pre-encoded bodies would not fit a small host.
type ingestSource struct {
	s    *pointStream
	buf  []float64
	body []byte
}

// next returns the next body; it is valid until the following call.
func (src *ingestSource) next() []byte {
	src.buf = src.s.take(src.buf[:0], ingestBatch)
	src.body = appendPointsBody(src.body[:0], src.buf)
	return src.body
}

// session is one server process with its warm-up done.
type session struct {
	srv   *server
	setup time.Duration
}

// startSession execs the server, waits for readiness, ingests the warm
// bodies with one closed-loop client (one client keeps the server's shard
// routing, and so its clustering, a pure function of the seed) and waits
// until they are drained. The clock starts before exec.
func startSession(bin string, telemetry bool, warm [][]byte, warmPoints int) (*session, error) {
	start := time.Now()
	srv, err := startServer(bin, telemetry)
	if err != nil {
		return nil, err
	}
	if err := srv.waitReady(); err != nil {
		srv.kill()
		return nil, err
	}
	var buf bytes.Buffer
	for i, b := range warm {
		st, err := srv.post("/v1/ingest", b, &buf)
		if err != nil || st != 202 {
			srv.kill()
			return nil, fmt.Errorf("warm ingest batch %d: status %d err %v: %s", i, st, err, buf.String())
		}
	}
	if _, err := srv.waitIngested(int64(warmPoints)); err != nil {
		srv.kill()
		return nil, err
	}
	return &session{srv: srv, setup: time.Since(start)}, nil
}

// replySample is one kept assign reply and the centers read at the end of
// its chunk.
type replySample struct {
	body    int
	reply   []byte
	centers []byte
}

// timedBatches sizes the mixed producer's part of the stream: as many
// ingestBatch bodies as mixedRate fills in d. A fixed amount, rather than a
// deadline, makes the server's final clustering a function of the seed
// alone, so radius_ratio does not move with the speed of the host.
func timedBatches(d time.Duration) int {
	return int(d.Seconds() * mixedRate / ingestBatch)
}

// mixedRate (points/s) is about the mixed workload's ingest rate on the
// 2-vCPU host the benchmark was sized on.
const mixedRate = 600_000

// chunks is how many parts an untraced run's timed phase is cut into. Each
// part ends with an untimed /v1/centers read that the part's sampled assign
// replies are rechecked against, and a calibration sample.
const chunks = 5

// phase accumulates the timed chunks run against one server.
type phase struct {
	assignLat   []float64 // ms, successful /v1/assign
	ingestLat   []float64 // ms, accepted /v1/ingest
	assignOK    int64
	assignFail  int64
	ingestOK    int64
	ingestFail  int64
	batches     int          // producer bodies sent so far
	failedBatch map[int]bool // producer bodies not accepted
	sentPoints  int64        // points in accepted producer bodies
	pendingMax  int64        // max pending_batches seen in ingest replies
	queries     atomic.Int64 // assign bodies sent so far
	samples     []replySample
	elapsed     time.Duration // summed over the chunks
}

// rate is the phase's points per second: assigned, or with a producer
// ingested (each chunk timed until the server had ingested what was sent).
func (ph *phase) rate(w servingWorkload) float64 {
	if w.producer {
		return float64(ph.sentPoints) / ph.elapsed.Seconds()
	}
	return float64(ph.assignOK*assignBatch) / ph.elapsed.Seconds()
}

// runPhase runs the timed phase in parts chunks of d/parts each (the mixed
// producer's timedBatches(d) bodies split evenly), calling after (when not
// nil) once each chunk is over.
func runPhase(srv *server, w servingWorkload, qbodies [][]byte, src *ingestSource, d time.Duration, parts int,
	tr *tracer, after func()) (*phase, error) {
	ph := &phase{failedBatch: map[int]bool{}}
	total := timedBatches(d)
	for c := 0; c < parts; c++ {
		n := total / parts
		if c == parts-1 {
			n = total - (parts-1)*(total/parts)
		}
		if err := ph.chunk(srv, w, qbodies, src, d/time.Duration(parts), n, tr); err != nil {
			return nil, err
		}
		if after != nil {
			after()
		}
	}
	return ph, nil
}

// chunk drives the closed-loop clients once. Without a producer the
// queriers run for d; with one, the producer sends n bodies and the chunk
// ends when the server has ingested every point sent, the querier running
// until then. Nothing is retried: non-2xx replies and transport errors
// count as failures. Every sampleEvery-th reply and each querier's last one
// are kept; once the chunk is over, one /v1/centers read is attached to
// them, so the recheck adds no request to the timed part.
func (ph *phase) chunk(srv *server, w servingWorkload, qbodies [][]byte, src *ingestSource, d time.Duration, n int, tr *tracer) error {
	// The clients need little CPU; one P keeps the benchmark process's
	// scheduler from spinning on the server's cores.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mu sync.Mutex
	var queriers, producer sync.WaitGroup
	var stop atomic.Bool
	var samples []replySample
	start := time.Now()
	end := start
	for q := 0; q < w.queriers; q++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			var buf bytes.Buffer
			var lat []float64
			var ok, fail int64
			var kept []replySample
			var last replySample
			for !stop.Load() {
				i := int(ph.queries.Add(1) - 1)
				bi := i % len(qbodies)
				t0 := time.Now()
				st, err := srv.post("/v1/assign", qbodies[bi], &buf)
				t1 := time.Now()
				tr.record("client.request", 0, t0, t1, "route", "/v1/assign", "status", strconv.Itoa(st))
				if err != nil || st != 200 {
					fail++
					continue
				}
				ok++
				lat = append(lat, ms(t1.Sub(t0)))
				if i%sampleEvery == sampleEvery-1 {
					kept = append(kept, replySample{body: bi, reply: append([]byte(nil), buf.Bytes()...)})
				} else {
					last = replySample{body: bi, reply: append(last.reply[:0], buf.Bytes()...)}
				}
			}
			if last.reply != nil {
				kept = append(kept, last)
			}
			mu.Lock()
			defer mu.Unlock()
			ph.assignLat = append(ph.assignLat, lat...)
			ph.assignOK += ok
			ph.assignFail += fail
			samples = append(samples, kept...)
			if now := time.Now(); now.After(end) {
				end = now
			}
		}()
	}
	if w.producer {
		producer.Add(1)
		go func() {
			defer producer.Done()
			var buf bytes.Buffer
			for until := ph.batches + n; ph.batches < until; ph.batches++ {
				body := src.next()
				t0 := time.Now()
				st, err := srv.post("/v1/ingest", body, &buf)
				t1 := time.Now()
				tr.record("client.request", 0, t0, t1, "route", "/v1/ingest", "status", strconv.Itoa(st))
				if err != nil || st != 202 {
					ph.ingestFail++
					ph.failedBatch[ph.batches] = true
					continue
				}
				ph.ingestOK++
				ph.sentPoints += ingestBatch
				ph.ingestLat = append(ph.ingestLat, ms(t1.Sub(t0)))
				var r ingestReply
				if json.Unmarshal(buf.Bytes(), &r) == nil && r.PendingBatches > ph.pendingMax {
					ph.pendingMax = r.PendingBatches
				}
			}
		}()
		producer.Wait()
		drained, err := srv.waitIngested(int64(w.warm) + ph.sentPoints)
		stop.Store(true)
		queriers.Wait()
		if err != nil {
			return err
		}
		end = drained
	} else {
		time.Sleep(time.Until(start.Add(d)))
		stop.Store(true)
		queriers.Wait()
	}
	ph.elapsed += end.Sub(start)
	centers, err := srv.get("/v1/centers")
	if err != nil {
		return err
	}
	for i := range samples {
		samples[i].centers = centers
	}
	ph.samples = append(ph.samples, samples...)
	return nil
}

// sentPoints regenerates every point the server accepted: the warm prefix
// and the producer's accepted bodies.
func sentPoints(mod *model, seed int64, w servingWorkload, ph *phase) []float64 {
	s := mod.points(seed)
	pts := s.take(make([]float64, 0, (int64(w.warm)+ph.sentPoints)*dim), w.warm)
	for b := 0; b < ph.batches; b++ {
		if ph.failedBatch[b] {
			s.take(make([]float64, 0, ingestBatch*dim), ingestBatch)
			continue
		}
		pts = s.take(pts, ingestBatch)
	}
	return pts
}

// final is what the benchmark reads from a session after its phase.
type final struct {
	stats   *statsReply
	centers centersReply
	rss     float64
}

func readFinal(srv *server) (*final, error) {
	f := &final{}
	var err error
	if f.stats, err = srv.stats(); err != nil {
		return nil, err
	}
	if err := srv.getJSON("/v1/centers", &f.centers); err != nil {
		return nil, err
	}
	if f.rss, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	return f, nil
}

// verify checks the served clustering against every sent point and the
// sampled assign replies against brute force, and returns the covering
// radius of the served centers and the GON radius over the sent points.
func verify(pts []float64, qflat []float64, f *final, ph *phase, sent int64, chk *checker) (served, gon float64, err error) {
	st := f.stats
	chk.expect(st.AcceptedPoints == st.IngestedPoints+st.DroppedPoints && st.PendingBatches == 0,
		"accounting: accepted %d != ingested %d + dropped %d (pending %d)", st.AcceptedPoints, st.IngestedPoints, st.DroppedPoints, st.PendingBatches)
	chk.expect(st.IngestedPoints == sent, "ingested_points %d, sent %d", st.IngestedPoints, sent)

	all := &metric.Dataset{Data: pts, N: len(pts) / dim, Dim: dim}
	centers, err := metric.FromPoints(f.centers.Centers)
	if err != nil {
		return 0, 0, fmt.Errorf("served centers: %w", err)
	}
	cert := f.centers.Snapshot.Radius
	var worst float64
	outside := 0
	for i := 0; i < all.N; i++ {
		_, sq := metric.NearestInRange(centers, 0, centers.N, all.At(i))
		d := math.Sqrt(sq)
		if d > cert {
			outside++
		}
		if d > worst {
			worst = d
		}
	}
	chk.expect(outside == 0, "%d sent points lie beyond the certified radius %v (worst %v)", outside, cert, worst)
	g := core.Gonzalez(all, serveK, core.Options{First: 0})
	chk.expect(f.centers.Snapshot.LowerBound <= g.Radius, "lower_bound %v > GON radius %v", f.centers.Snapshot.LowerBound, g.Radius)

	verified := 0
	for _, smp := range ph.samples {
		var rep assignReply
		var cr centersReply
		if err := json.Unmarshal(smp.reply, &rep); err != nil {
			return 0, 0, fmt.Errorf("sampled assign reply: %w", err)
		}
		if err := json.Unmarshal(smp.centers, &cr); err != nil {
			return 0, 0, fmt.Errorf("sampled centers reply: %w", err)
		}
		if cr.Snapshot.Version != rep.Snapshot.Version {
			continue // the centers moved between the two reads
		}
		cs, err := metric.FromPoints(cr.Centers)
		if err != nil {
			return 0, 0, err
		}
		q := qflat[smp.body*assignBatch*dim : (smp.body+1)*assignBatch*dim]
		chk.expect(len(rep.Assignments) == assignBatch, "assign reply has %d assignments", len(rep.Assignments))
		for j := 0; j < len(rep.Assignments) && j < assignBatch; j++ {
			c, sq := metric.NearestInRange(cs, 0, cs.N, q[j*dim:(j+1)*dim])
			a := rep.Assignments[j]
			if a.Center != c || a.Distance != math.Sqrt(sq) {
				chk.expect(false, "assign reply (version %d) point %d: got center %d dist %v, brute force %d %v",
					rep.Snapshot.Version, j, a.Center, a.Distance, c, math.Sqrt(sq))
				break
			}
		}
		verified++
	}
	chk.expect(verified > 0, "no sampled assign reply could be rechecked (%d samples)", len(ph.samples))
	return worst, g.Radius, nil
}

// runServing runs the assign or mixed workload.
func runServing(o opts, w servingWorkload, m *metrics, chk *checker) error {
	mod := newModel(w.drift)
	warmPts := mod.points(o.seed).take(make([]float64, 0, w.warm*dim), w.warm)
	warm := bodiesOf(warmPts, warmBatch)
	qflat, qbodies := queryPool(mod, o.seed)
	newSource := func() *ingestSource {
		if !w.producer {
			return nil
		}
		s := mod.points(o.seed)
		s.take(make([]float64, 0, w.warm*dim), w.warm)
		return &ingestSource{s: s}
	}
	if o.trace {
		return runServingTraced(o, w, mod, warm, qflat, qbodies, newSource, m, chk)
	}

	// The solver calls behind gon_ms, mrg_ms and eim_ms run on the warm
	// points (the batch workload's shape) before any server starts.
	s := newSolves(&metric.Dataset{Data: warmPts, N: w.warm, Dim: dim}, nil, chk)
	solveCal := o.cal.mark()
	for _, step := range []func() error{s.runGON, s.runMRG, s.runEIM, s.runGON, s.runMRG, s.runEIM, s.runGON, s.runMRG, s.runEIM,
		s.runGON, s.runMRG, s.runGON, s.runMRG, s.runGON, s.runMRG} {
		if err := step(); err != nil {
			return err
		}
		o.cal.sample()
	}
	setupCal := o.cal.mark()
	var setups []float64
	var sess *session
	for i := 0; i < setupReps; i++ {
		o.cal.sample()
		runtime.GC()
		var err error
		if sess, err = startSession(o.bin, false, warm, w.warm); err != nil {
			return err
		}
		setups = append(setups, sess.setup.Seconds())
		if i == setupReps-1 {
			break // this server takes the timed phase
		}
		if err := sess.srv.stop(); err != nil {
			return fmt.Errorf("stop set-up server: %w", err)
		}
	}
	phaseCal := o.cal.mark()
	ph, err := runPhase(sess.srv, w, qbodies, newSource(), o.seconds, chunks, nil, o.cal.sample)
	if err != nil {
		sess.srv.kill()
		return err
	}
	f, err := closeSession(sess.srv)
	if err != nil {
		return err
	}
	m.attempted += ph.assignOK + ph.assignFail + ph.ingestOK + ph.ingestFail
	m.failed += ph.assignFail + ph.ingestFail

	pts := sentPoints(mod, o.seed, w, ph)
	served, gon, err := verify(pts, qflat, f, ph, int64(w.warm)+ph.sentPoints, chk)
	if err != nil {
		return err
	}
	s.check()
	fmt.Fprintf(os.Stderr, "set-up runs (s): %.4f  coalesced %d of %d assign requests, snapshot builds %d\n",
		setups, f.stats.CoalescedRequests, f.stats.AssignRequests, f.stats.SnapshotBuilds)
	fmt.Fprintf(os.Stderr, "assign latency p10/25/50/75/90/95/99 (ms): %.3f %.3f %.3f %.3f %.3f %.3f %.3f  n=%d  ingest batches=%d\n",
		percentile(ph.assignLat, 10), percentile(ph.assignLat, 25), percentile(ph.assignLat, 50), percentile(ph.assignLat, 75),
		percentile(ph.assignLat, 90), percentile(ph.assignLat, 95), percentile(ph.assignLat, 99), len(ph.assignLat), ph.ingestOK)
	fmt.Fprintf(os.Stderr, "rate %.0f pts/s\n", ph.rate(w))
	// Each time is scaled by the calibration samples of its own part of the
	// run: after each solver call, before each set-up, after each chunk.
	s.metrics(m, o.cal.slowdown(solveCal, setupCal))
	m.setTime("setup_s", median(setups), o.cal.slowdown(setupCal, phaseCal))
	m.setTime("p50_ms", percentile(ph.assignLat, 50), o.cal.slowdown(phaseCal, o.cal.mark()))
	m.set("radius_ratio", served/gon)
	m.set("peak_rss_mb", f.rss)
	return nil
}

// closeSession reads the server's final state and stops it.
func closeSession(srv *server) (*final, error) {
	f, err := readFinal(srv)
	if err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	return f, nil
}

// runServingTraced is the traced run: an untraced phase (-telemetry=false)
// for the overhead baseline, then a phase with server telemetry armed and
// client spans recorded, whose /metrics and /v1/stats deltas give the
// server's layer metrics; then isolated calls into assign, metric and
// stream on the same inputs.
func runServingTraced(o opts, w servingWorkload, mod *model, warm [][]byte, qflat []float64, qbodies [][]byte,
	newSource func() *ingestSource, m *metrics, chk *checker) error {
	tr := newTracer()
	sessA, err := startSession(o.bin, false, warm, w.warm)
	if err != nil {
		return err
	}
	phA, err := runPhase(sessA.srv, w, qbodies, newSource(), o.seconds, chunks, nil, o.cal.sample)
	if err != nil {
		sessA.srv.kill()
		return err
	}
	if _, err := closeSession(sessA.srv); err != nil {
		return err
	}

	sess, err := startSession(o.bin, true, warm, w.warm)
	if err != nil {
		return err
	}
	before, err := scrape(sess.srv)
	if err != nil {
		sess.srv.kill()
		return err
	}
	ph, err := runPhase(sess.srv, w, qbodies, newSource(), o.seconds, chunks, tr, o.cal.sample)
	if err != nil {
		sess.srv.kill()
		return err
	}
	after, err := scrape(sess.srv)
	if err != nil {
		sess.srv.kill()
		return err
	}
	f, err := closeSession(sess.srv)
	if err != nil {
		return err
	}
	m.attempted += ph.assignOK + ph.assignFail + ph.ingestOK + ph.ingestFail
	m.failed += ph.assignFail + ph.ingestFail
	pts := sentPoints(mod, o.seed, w, ph)
	if _, _, err := verify(pts, qflat, f, ph, int64(w.warm)+ph.sentPoints, chk); err != nil {
		return err
	}

	// Server stages, from the histogram deltas.
	clientMean := map[string]float64{"assign": mean(ph.assignLat), "ingest": mean(ph.ingestLat)}
	stageMean := map[string]float64{}
	for _, rs := range routeStages {
		reqs := diffHist(after.hist(`kcenter_request_duration_seconds{route="`+rs.route+`"}`),
			before.hists[`kcenter_request_duration_seconds{route="`+rs.route+`"}`])
		var attributed float64 // seconds per request
		for _, st := range rs.stages {
			key := `kcenter_stage_duration_seconds{route="` + rs.route + `",stage="` + st + `"}`
			h := diffHist(after.hist(key), before.hists[key])
			name := "server." + rs.route + "." + st
			m.set(name+"_mean_ms", h.mean()*1e3)
			m.set(name+"_p50_ms", h.quantile(0.5)*1e3)
			stageMean[rs.route+"."+st] = h.mean() * 1e3
			if st != "push" && reqs.count > 0 {
				attributed += h.sum / reqs.count
			}
		}
		if reqs.count > 0 {
			un := clientMean[rs.route] - attributed*1e3
			m.set("server."+rs.route+".unattributed_ms", un)
			chk.expect(un >= 0, "server.%s: stage means exceed the client mean by %.4f ms", rs.route, -un)
		}
	}
	dwell := diffHist(after.hist("kcenter_shard_dwell_seconds"), before.hists["kcenter_shard_dwell_seconds"])
	m.set("stream.shard_dwell_ms", dwell.mean()*1e3)

	// Server counters, from the /v1/stats deltas.
	sb, sa := before.stats, after.stats
	if n := sa.AssignRequests - sb.AssignRequests; n > 0 {
		m.set("server.snapshot_builds_per_assign", float64(sa.SnapshotBuilds-sb.SnapshotBuilds)/float64(n))
		m.set("server.coalesced_share", float64(sa.CoalescedRequests-sb.CoalescedRequests)/float64(n))
	}
	if n := sa.CoalesceBatches - sb.CoalesceBatches; n > 0 {
		m.set("server.coalesce_batch_points", float64(sa.CoalescedPoints-sb.CoalescedPoints)/float64(n))
	}
	if n := sa.AssignPoints - sb.AssignPoints; n > 0 {
		m.set("assign.evals_per_point", float64(sa.DistEvals-sb.DistEvals)/float64(n))
	}
	m.set("server.pending_batches_max", float64(ph.pendingMax))
	m.set("server.shed_batches", float64(sa.ShedBatches-sb.ShedBatches))

	p50A, p50 := percentile(phA.assignLat, 50), percentile(ph.assignLat, 50)
	m.set("obs.overhead_p50_pct", (p50-p50A)/p50A*100)
	setClient(m, phA.assignLat, phA.rate(w))
	m.set("stream.certificate_ratio", f.centers.Snapshot.Radius/f.centers.Snapshot.LowerBound)

	// Isolated calls on the served centers and this run's queries.
	centers, err := metric.FromPoints(f.centers.Centers)
	if err != nil {
		return err
	}
	lat, points, _, _ := inProcessAssign(centers, qflat, 1)
	m.set("assign.nearest_ns_per_point", sumFloats(lat)*1e6/float64(points))
	m.set("check.kernel_stage_vs_isolated", stageMean["assign.kernel"]/mean(lat))
	m.set("metric.nearest_ns_per_eval", timeNearest(centers, qflat, tr))
	both := metric.NewDataset(0, dim)
	both.Data = append(append(both.Data, centers.Data...), qflat...)
	both.N = len(both.Data) / dim
	idx := make([]int, centers.N)
	for i := range idx {
		idx[i] = i
	}
	m.set("assign.evaluate_ms", ms(tr.timed("assign.Evaluate", 0, func() { assign.Evaluate(both, idx, 0) })))

	if w.producer {
		r, err := replay(pts, w.warm, tr)
		if err != nil {
			return err
		}
		m.set("stream.push_ns_per_point", r.nsPerPoint)
		m.set("stream.center_changes", float64(r.changes))
		m.set("stream.snapshot_ms", r.snapshotMs)
		m.set("check.push_stage_vs_isolated", stageMean["ingest.push"]/r.pushBatchMs)
	}
	return tr.write(o.tracePath())
}

// scraped is one read of /metrics and /v1/stats.
type scraped struct {
	*promScrape
	stats *statsReply
}

func scrape(srv *server) (*scraped, error) {
	text, err := srv.get("/metrics")
	if err != nil {
		return nil, err
	}
	ps, err := parseProm(string(text))
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	st, err := srv.stats()
	if err != nil {
		return nil, err
	}
	return &scraped{promScrape: ps, stats: st}, nil
}

// replayed is the stream layer measured in isolation.
type replayed struct {
	nsPerPoint  float64 // full-speed PushBatch + Finish, per point
	changes     uint64  // center-set version steps over the timed portion
	snapshotMs  float64 // median Snapshot() after a version step
	pushBatchMs float64 // mean PushBatch call with the shards caught up
}

// replay pushes the points the server ingested into a stream.Sharded of
// the server's shape, in the same batches: once at full speed, then once
// batch by batch — waiting for the shards after each timed-portion batch —
// to time PushBatch as the server's ingest worker sees it and Snapshot
// after every center-set change.
func replay(pts []float64, warm int, tr *tracer) (*replayed, error) {
	rows := make([][]float64, len(pts)/dim)
	for i := range rows {
		rows[i] = pts[i*dim : (i+1)*dim : (i+1)*dim]
	}
	cuts := func(fn func(lo, hi int) error) error {
		for lo := 0; lo < len(rows); {
			b := ingestBatch
			if lo < warm {
				b = warmBatch
				if warm-lo < b {
					b = warm - lo
				}
			}
			hi := lo + b
			if hi > len(rows) {
				hi = len(rows)
			}
			if err := fn(lo, hi); err != nil {
				return err
			}
			lo = hi
		}
		return nil
	}
	cfg := stream.ShardedConfig{K: serveK, Shards: serveShards}
	r := &replayed{}

	sh, err := stream.NewSharded(cfg)
	if err != nil {
		return nil, err
	}
	var perr error
	d := tr.timed("stream.replay", 0, func() {
		perr = cuts(func(lo, hi int) error { return sh.PushBatch(rows[lo:hi]) })
		if perr == nil {
			_, perr = sh.Finish()
		}
	})
	if perr != nil {
		return nil, perr
	}
	r.nsPerPoint = float64(d.Nanoseconds()) / float64(len(rows))

	sh, err = stream.NewSharded(cfg)
	if err != nil {
		return nil, err
	}
	var pushes, snaps []float64
	var v0, v uint64
	err = cuts(func(lo, hi int) error {
		if lo < warm {
			return sh.PushBatch(rows[lo:hi])
		}
		if lo == warm {
			waitShards(sh, int64(warm))
			v = sh.CentersVersion()
			v0 = v
		}
		t := time.Now()
		if err := sh.PushBatch(rows[lo:hi]); err != nil {
			return err
		}
		pushes = append(pushes, ms(time.Since(t)))
		waitShards(sh, int64(hi))
		if nv := sh.CentersVersion(); nv != v {
			v = nv
			var serr error
			snaps = append(snaps, ms(tr.timed("stream.Snapshot", 0, func() { _, serr = sh.Snapshot() })))
			return serr
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if _, err := sh.Finish(); err != nil {
		return nil, err
	}
	r.changes = v - v0
	r.pushBatchMs = mean(pushes)
	if len(snaps) > 0 {
		r.snapshotMs = median(snaps)
	}
	return r, nil
}

// waitShards spins until the shards have consumed n points.
func waitShards(sh *stream.Sharded, n int64) {
	for {
		var got int64
		for _, s := range sh.PerShardStats() {
			got += s.Ingested
		}
		if got >= n {
			return
		}
		runtime.Gosched()
	}
}
