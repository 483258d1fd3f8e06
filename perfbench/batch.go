package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"kcenter/internal/assign"
	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/eim"
	"kcenter/internal/mapreduce"
	"kcenter/internal/metric"
	"kcenter/internal/mrg"
)

// Batch workload shape: the paper's GON vs MRG vs EIM comparison.
const (
	batchN     = 1_000_000
	batchK     = 50
	machines   = 50
	eimN       = 100_000
	eimK       = 10
	eimPhi     = 8
	eimEpsilon = 0.1
	// setupReps is how many times a run builds its set-up; setup_s is the
	// median.
	setupReps = 5
	// assignBatch is the points per assign request, in-process and over HTTP.
	assignBatch = 256
	// queryBodies is the size of the assign query pool a run cycles through.
	queryBodies = 1024
)

// solves collects the solver calls of one run on one dataset. Every
// repeated call must return the same radius as the first, since each solver
// is deterministic.
type solves struct {
	ds, sub             *metric.Dataset // sub: the EIM subset
	tr                  *tracer
	chk                 *checker
	gonMs, mrgMs, eimMs []float64
	gon                 *core.Result
	mrg                 *mrg.Result
	eim                 *eim.Result
	gonSub              *core.Result // GON on the EIM subset at k = eimK
	allocMB, gcCycles   []float64    // per solve (traced runs)

	// In-process assignment of the query pool against MRG's centers (the
	// batch workload's "served" clustering).
	assignLat    []float64 // ms per assignBatch-point call
	assignPoints int64
	assignWall   time.Duration
	assignEvals  int64
}

func newSolves(ds *metric.Dataset, tr *tracer, chk *checker) *solves {
	sub := prefix(ds, eimN)
	return &solves{ds: ds, sub: sub, tr: tr, chk: chk,
		gonSub: core.GonzalezAssign(sub, eimK, core.Options{First: 0})}
}

func prefix(ds *metric.Dataset, n int) *metric.Dataset {
	if n > ds.N {
		n = ds.N
	}
	return &metric.Dataset{Data: ds.Data[:n*ds.Dim], N: n, Dim: ds.Dim}
}

// mrgConfig is the paper's 2-round MRG: contiguous partitions and each
// reducer's first point as its first center, so the run is deterministic.
func mrgConfig() mrg.Config {
	return mrg.Config{K: batchK, Cluster: mapreduce.Config{Machines: machines}}
}

// eimConfig fixes EIM's sampling seed: --seed varies the points, and a
// sampling seed that moved with it would make EIM's iteration count, and so
// its work, differ from run to run.
func eimConfig() eim.Config {
	return eim.Config{K: eimK, Epsilon: eimEpsilon, Phi: eimPhi,
		Cluster: mapreduce.Config{Machines: machines}, Seed: uint64(subSeed(layoutSeed, saltEIM))}
}

// measure times one solver call inside a span and returns its wall time in
// ms.
func (s *solves) measure(name string, fn func() error) (float64, error) {
	// Each call starts from a collected heap, as a single solve in a fresh
	// process would, instead of paying for its predecessor's garbage at a
	// moment that depends on GC pacing.
	runtime.GC()
	var before, after runtime.MemStats
	if s.tr != nil {
		runtime.ReadMemStats(&before)
	}
	var err error
	d := s.tr.timed(name, 0, func() { err = fn() })
	if s.tr != nil {
		runtime.ReadMemStats(&after)
		s.allocMB = append(s.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		s.gcCycles = append(s.gcCycles, float64(after.NumGC-before.NumGC))
	}
	return ms(d), err
}

func (s *solves) runGON() error {
	d, err := s.measure("core.GonzalezAssign", func() error {
		r := core.GonzalezAssign(s.ds, batchK, core.Options{First: 0})
		if s.gon == nil {
			s.gon = r
		} else {
			s.chk.expect(r.Radius == s.gon.Radius, "GON radius changed between calls: %v vs %v", r.Radius, s.gon.Radius)
		}
		return nil
	})
	s.gonMs = append(s.gonMs, d)
	return err
}

func (s *solves) runMRG() error {
	d, err := s.measure("mrg.Run", func() error {
		r, err := mrg.Run(s.ds, mrgConfig())
		if err != nil {
			return err
		}
		if s.mrg == nil {
			s.mrg = r
		} else {
			s.chk.expect(r.Radius == s.mrg.Radius, "MRG radius changed between calls: %v vs %v", r.Radius, s.mrg.Radius)
		}
		return nil
	})
	s.mrgMs = append(s.mrgMs, d)
	return err
}

func (s *solves) runEIM() error {
	d, err := s.measure("eim.Run", func() error {
		r, err := eim.Run(s.sub, eimConfig())
		if err != nil {
			return err
		}
		if s.eim == nil {
			s.eim = r
		} else {
			s.chk.expect(r.Radius == s.eim.Radius, "EIM radius changed between calls: %v vs %v", r.Radius, s.eim.Radius)
		}
		return nil
	})
	s.eimMs = append(s.eimMs, d)
	return err
}

// assignPass times one in-process pass of queries against MRG's centers.
func (s *solves) assignPass(queries []float64) {
	centers := s.ds.Subset(s.mrg.Centers)
	runtime.GC() // the previous solver call's garbage is not this pass's cost
	lat, points, wall, evals := inProcessAssign(centers, queries, 1)
	s.assignLat = append(s.assignLat, lat...)
	s.assignPoints += points
	s.assignWall += wall
	s.assignEvals += evals
}

// check applies the paper's guarantees and independent radius checks.
func (s *solves) check() {
	ds, sub, chk := s.ds, s.sub, s.chk
	chk.expect(s.gon.Radius == assign.Radius(ds, s.gon.Centers), "GON radius %v != assign.Radius of its centers", s.gon.Radius)
	chk.expect(s.mrg.Radius == assign.Radius(ds, s.mrg.Centers), "MRG radius %v != assign.Radius of its centers", s.mrg.Radius)
	chk.expect(s.eim.Radius == assign.Radius(sub, s.eim.Centers), "EIM radius %v != assign.Radius of its centers", s.eim.Radius)
	chk.expect(s.mrg.Stats.NumRounds() == 2 && s.mrg.MapReduceRounds == 2, "MRG ran %d rounds, want 2", s.mrg.Stats.NumRounds())
	chk.expect(s.mrg.Radius <= 4*s.gon.Radius, "MRG radius %v > 4 × GON radius %v", s.mrg.Radius, s.gon.Radius)
	chk.expect(s.eim.Radius <= 10*s.gonSub.Radius, "EIM radius %v > 10 × GON radius %v", s.eim.Radius, s.gonSub.Radius)
	chk.expect(len(s.gon.Centers) == batchK && len(s.mrg.Centers) == batchK && len(s.eim.Centers) == eimK,
		"center counts GON %d MRG %d EIM %d", len(s.gon.Centers), len(s.mrg.Centers), len(s.eim.Centers))
}

// metrics reports the end-to-end solver metrics every workload reports;
// slowdown is the calibration's over the solver calls.
func (s *solves) metrics(m *metrics, slowdown float64) {
	m.setTime("gon_ms", median(s.gonMs), slowdown)
	m.setTime("mrg_ms", median(s.mrgMs), slowdown)
	m.setTime("eim_ms", median(s.eimMs), slowdown)
	m.set("mrg_radius_ratio", s.mrg.Radius/s.gon.Radius)
	m.set("eim_radius_ratio", s.eim.Radius/s.gonSub.Radius)
}

// loadDataset builds the Dataset from CSV text setupReps times, checks it
// holds exactly want, and returns the median build time in seconds.
func loadDataset(csv []byte, want []float64, tr *tracer, chk *checker) (float64, error) {
	var ds *metric.Dataset
	var times []float64
	for i := 0; i < setupReps; i++ {
		var err error
		ds = nil
		runtime.GC() // start each build from the same heap state
		d := tr.timed("dataset.LoadCSV", 0, func() { ds, err = dataset.LoadCSV(bytes.NewReader(csv), dataset.LoadCSVOptions{}) })
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
	}
	chk.expect(ds.N*ds.Dim == len(want) && equalFloats(ds.Data, want), "loaded dataset differs from the generated points")
	fmt.Fprintf(os.Stderr, "set-up runs (s): %.4f\n", times)
	return median(times), nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// queryPool draws the assign query pool: queryBodies batches of assignBatch
// points from the model.
func queryPool(m *model, seed int64) (flat []float64, bodies [][]byte) {
	qs := m.stream(seed, saltQueries)
	flat = qs.take(make([]float64, 0, queryBodies*assignBatch*dim), queryBodies*assignBatch)
	bodies = make([][]byte, queryBodies)
	for i := range bodies {
		bodies[i] = pointsBody(flat[i*assignBatch*dim : (i+1)*assignBatch*dim])
	}
	return flat, bodies
}

// inProcessAssign times assign.NearestBatch over the query pool against
// centers, passes times over, and returns per-batch latencies (ms), total
// points, elapsed wall time and distance evaluations.
func inProcessAssign(centers *metric.Dataset, queries []float64, passes int) (lat []float64, points int64, wall time.Duration, evals int64) {
	outC := make([]int, assignBatch)
	outSq := make([]float64, assignBatch)
	lat = make([]float64, 0, passes*len(queries)/(assignBatch*dim))
	stride := assignBatch * dim
	q := &metric.Dataset{Data: make([]float64, stride), N: assignBatch, Dim: dim}
	start := time.Now()
	for p := 0; p < passes; p++ {
		for off := 0; off+stride <= len(queries); off += stride {
			// The server runs the kernel on a batch it has just decoded, so
			// each batch is copied in, and so into cache, before the clock
			// starts; the 4 MiB pool itself would not stay in cache.
			copy(q.Data, queries[off:off+stride])
			t := time.Now()
			evals += assign.NearestBatch(centers, nil, q, outC, outSq)
			lat = append(lat, ms(time.Since(t)))
			points += assignBatch
		}
	}
	return lat, points, time.Since(start), evals
}

// runBatch is the batch workload: GON, MRG and EIM called in-process on a
// 1M-point GAU dataset.
func runBatch(o opts, m *metrics, chk *checker) error {
	mod := newModel(0)
	pts := mod.points(o.seed).take(make([]float64, 0, batchN*dim), batchN)
	qflat, _ := queryPool(mod, o.seed)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// The solvers run on the generated points; the CSV set-up is timed
	// after them (and must rebuild the same Dataset), so its parsing
	// garbage does not decide the process's peak RSS.
	ds := &metric.Dataset{Data: pts, N: batchN, Dim: dim}
	until := time.Now().Add(o.seconds)
	if o.trace {
		until = time.Time{} // one iteration feeds the layer metrics
	}
	// Iterations of GON, MRG, GON, MRG, EIM until the deadline (at least
	// one), with a calibration sample after every call, and an in-process
	// assign pass once MRG's centers exist, so both span the run.
	s := newSolves(ds, tr, chk)
	for first := true; first || time.Now().Before(until); first = false {
		for _, step := range []func() error{s.runGON, s.runMRG, s.runGON, s.runMRG, s.runEIM} {
			if err := step(); err != nil {
				return err
			}
			o.cal.sample()
			if s.mrg != nil {
				s.assignPass(qflat)
			}
		}
	}
	s.check()
	m.attempted += int64(len(s.gonMs) + len(s.mrgMs) + len(s.eimMs))
	lat, points, wall, evals := s.assignLat, s.assignPoints, s.assignWall, s.assignEvals
	rss, err := vmHWM("/proc/self/status")
	if err != nil {
		return err
	}
	setup, err := loadDataset(csvText(pts), pts, tr, chk)
	if err != nil {
		return fmt.Errorf("load dataset: %w", err)
	}

	if !o.trace {
		// Solver calls, calibration samples and assign passes alternate
		// over the whole run, so one slowdown scales every time.
		slow := o.cal.slowdown(0, o.cal.mark())
		s.metrics(m, slow)
		m.setTime("setup_s", setup, slow)
		m.setTime("p50_ms", percentile(lat, 50), slow)
		m.set("radius_ratio", s.mrg.Radius/s.gon.Radius)
		m.set("peak_rss_mb", rss)
		return nil
	}

	// Layer metrics, each from an isolated call on this run's inputs.
	n, k := int64(ds.N), int64(len(s.gon.Centers))
	m.set("core.gon_evals", float64(s.gon.DistEvals))
	m.set("core.gon_ns_per_eval", median(s.gonMs)*1e6/float64(s.gon.DistEvals))
	relax := timeRelax(ds, s.gon.Centers, tr)
	m.set("metric.relax_ns_per_eval", float64(relax.Nanoseconds())/float64(n*k))
	m.set("metric.relax_computed_bytes_per_eval", relaxBytesPerEval(ds.Dim))
	gonCenters := ds.Subset(s.gon.Centers)
	m.set("metric.nearest_ns_per_eval", timeNearest(gonCenters, qflat, tr))

	rounds := s.mrg.Stats.Rounds
	m.set("mrg.rounds", float64(len(rounds)))
	m.set("mrg.sim_ops", float64(s.mrg.Stats.SimulatedOps()))
	m.set("mrg.round1.max_ops", float64(rounds[0].MaxOps))
	m.set("mrg.round1.sum_ops", float64(rounds[0].SumOps))
	m.set("mrg.round1.sum_wall_ms", ms(rounds[0].SumWall))
	m.set("mrg.final.max_ops", float64(rounds[len(rounds)-1].MaxOps))
	m.set("mrg.final.wall_ms", ms(rounds[len(rounds)-1].MaxWall))
	m.set("mrg.evaluate_ms", ms(tr.timed("assign.Evaluate", 0, func() { assign.Evaluate(ds, s.mrg.Centers, 0) })))

	m.set("eim.iterations", float64(s.eim.Iterations))
	m.set("eim.sample_size", float64(s.eim.SampleSize))
	m.set("eim.fell_back", boolFloat(s.eim.FellBack))
	m.set("eim.sim_ops", float64(s.eim.Stats.SimulatedOps()))
	m.set("eim.total_ops", float64(s.eim.Stats.TotalOps()))
	walls := map[string]float64{}
	for _, r := range s.eim.Stats.Rounds {
		parts := strings.Split(r.Name, "-") // eim-<i>-<kind> or eim-final
		walls[parts[len(parts)-1]] += ms(r.SumWall)
	}
	for _, kind := range eimRoundKinds {
		m.set("eim."+kind+".sum_wall_ms", walls[kind])
	}

	m.set("assign.evaluate_ms", ms(tr.timed("assign.Evaluate", 0, func() { assign.Evaluate(ds, s.gon.Centers, 0) })))
	m.set("assign.nearest_ns_per_point", sumFloats(lat)*1e6/float64(points))
	m.set("assign.evals_per_point", float64(evals)/float64(points))
	m.set("runtime.alloc_mb_per_solve", mean(s.allocMB))
	m.set("runtime.gc_cycles_per_solve", mean(s.gcCycles))
	setClient(m, lat, float64(points)/wall.Seconds())
	return tr.write(o.tracePath())
}

var eimRoundKinds = []string{"sample", "select", "remove", "final"}

// setClient reports the assign latency tail and rate, which vary too much
// with the host to carry a regression bound (README.md, End-to-end
// metrics).
func setClient(m *metrics, lat []float64, rate float64) {
	m.set("client.p90_ms", percentile(lat, 90))
	m.set("client.p99_ms", percentile(lat, 99))
	m.set("client.throughput_pts_s", rate)
	m.set("client.samples", float64(len(lat)))
}

// timeRelax runs the Gonzalez relaxation pass of each center in isolation:
// the kernel core.GonzalezAssign spends nearly all its time in.
func timeRelax(ds *metric.Dataset, centers []int, tr *tracer) time.Duration {
	minSq := make([]float64, ds.N)
	for i := range minSq {
		minSq[i] = 1e308
	}
	asg := make([]int, ds.N)
	scratch := make([]float64, ds.N)
	return tr.timed("metric.RelaxFarthestAssign", 0, func() {
		for c, idx := range centers {
			metric.RelaxFarthestAssign(ds, 0, ds.N, ds.At(idx), c, minSq, asg, scratch)
		}
	})
}

// relaxBytesPerEval is computed from the layout, not measured: each
// evaluation reads one point (dim float64s), writes and re-reads its
// squared distance in the scratch row, and reads the running minimum.
func relaxBytesPerEval(dim int) float64 { return float64(dim*8 + 3*8) }

// timeNearest times metric.NearestInRange for every query point against
// centers and returns ns per distance evaluation.
func timeNearest(centers *metric.Dataset, queries []float64, tr *tracer) float64 {
	nq := len(queries) / centers.Dim
	var sink float64
	d := tr.timed("metric.NearestInRange", 0, func() {
		for i := 0; i < nq; i++ {
			_, sq := metric.NearestInRange(centers, 0, centers.N, queries[i*centers.Dim:(i+1)*centers.Dim])
			sink += sq
		}
	})
	_ = sink
	return float64(d.Nanoseconds()) / float64(nq*centers.N)
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func sumFloats(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
