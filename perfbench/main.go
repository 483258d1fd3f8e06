// Command perfbench is the repository's benchmark: three workloads over
// the paper's batch solvers (in-process) and the `kcenter serve` read and
// write paths (a separate process over loopback). Each run checks its
// outputs and prints every metric with its unit; the last line of standard
// output is one JSON object {"correct","attempted","failed","metrics"}.
// See README.md for the workloads, metric definitions and layer map.
//
//	perfbench -workload batch|assign|mixed -seed N -seconds S -trace 0|1 [-bin kcenter] [-out dir]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// endToEnd lists the metrics an untraced run reports, with units.
var endToEnd = []metricDef{
	{"p50_ms", "ms"},
	{"radius_ratio", "ratio"},
	{"gon_ms", "ms"},
	{"mrg_ms", "ms"},
	{"eim_ms", "ms"},
	{"mrg_radius_ratio", "ratio"},
	{"eim_radius_ratio", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics a traced run reports, with units. A layer the
// workload leaves idle reports 0 (README.md lists which).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"metric.relax_ns_per_eval", "ns"},
		{"metric.nearest_ns_per_eval", "ns"},
		{"metric.relax_computed_bytes_per_eval", "bytes"},
		{"core.gon_evals", "count"},
		{"core.gon_ns_per_eval", "ns"},
		{"mrg.rounds", "count"},
		{"mrg.sim_ops", "count"},
		{"mrg.round1.max_ops", "count"},
		{"mrg.round1.sum_ops", "count"},
		{"mrg.final.max_ops", "count"},
		{"mrg.round1.sum_wall_ms", "ms"},
		{"mrg.final.wall_ms", "ms"},
		{"mrg.evaluate_ms", "ms"},
		{"eim.iterations", "count"},
		{"eim.sample_size", "count"},
		{"eim.fell_back", "count"},
		{"eim.sim_ops", "count"},
		{"eim.total_ops", "count"},
	}
	for _, kind := range eimRoundKinds {
		defs = append(defs, metricDef{"eim." + kind + ".sum_wall_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"assign.evaluate_ms", "ms"},
		metricDef{"assign.nearest_ns_per_point", "ns"},
		metricDef{"assign.evals_per_point", "count"},
		metricDef{"stream.push_ns_per_point", "ns"},
		metricDef{"stream.center_changes", "count"},
		metricDef{"stream.snapshot_ms", "ms"},
		metricDef{"stream.shard_dwell_ms", "ms"},
		metricDef{"stream.certificate_ratio", "ratio"},
	)
	for _, rs := range routeStages {
		for _, st := range rs.stages {
			defs = append(defs,
				metricDef{"server." + rs.route + "." + st + "_mean_ms", "ms"},
				metricDef{"server." + rs.route + "." + st + "_p50_ms", "ms"})
		}
		defs = append(defs, metricDef{"server." + rs.route + ".unattributed_ms", "ms"})
	}
	return append(defs,
		metricDef{"server.snapshot_builds_per_assign", "ratio"},
		metricDef{"server.coalesced_share", "ratio"},
		metricDef{"server.coalesce_batch_points", "count"},
		metricDef{"server.pending_batches_max", "count"},
		metricDef{"server.shed_batches", "count"},
		metricDef{"check.kernel_stage_vs_isolated", "ratio"},
		metricDef{"check.push_stage_vs_isolated", "ratio"},
		metricDef{"obs.overhead_p50_pct", "%"},
		metricDef{"runtime.alloc_mb_per_solve", "MiB"},
		metricDef{"runtime.gc_cycles_per_solve", "count"},
		metricDef{"client.p90_ms", "ms"},
		metricDef{"client.p99_ms", "ms"},
		metricDef{"client.throughput_pts_s", "pts/s"},
		metricDef{"client.samples", "count"},
		metricDef{"host.calib_ms", "ms"},
	)
}()

// routeStages are the server's per-route latency stages, as labelled in
// the kcenter_stage_duration_seconds histogram. Ingest's push stage runs
// on the ingest worker after the reply, so it is not part of the request.
var routeStages = []struct {
	route  string
	stages []string
}{
	{"ingest", []string{"decode", "queue_wait", "encode", "push"}},
	{"assign", []string{"decode", "snapshot", "coalesce", "kernel", "encode"}},
}

type metricDef struct{ name, unit string }

type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string
	out      string
	cal      *calibrator // host speed samples, taken between measurements
}

func (o opts) tracePath() string {
	return filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
}

// metrics accumulates one run's reported values.
type metrics struct {
	vals      map[string]float64
	raw       []string // measured values of the scaled times, for stderr
	attempted int64
	failed    int64
}

func (m *metrics) set(name string, v float64) { m.vals[name] = v }

// setTime reports an end-to-end time at the reference host's speed: the
// measured value divided by the slowdown that the calibration samples
// taken around the measurement give (see calib.go).
func (m *metrics) setTime(name string, measured, slowdown float64) {
	m.raw = append(m.raw, fmt.Sprintf("%s=%.6g/%.4f", name, measured, slowdown))
	m.set(name, measured/slowdown)
}

// checker collects correctness failures; any failure makes the run exit
// non-zero with "correct": false.
type checker struct{ failures []string }

func (c *checker) expect(ok bool, format string, args ...any) {
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var o opts
	var traceFlag int
	var seconds int
	flag.StringVar(&o.workload, "workload", "", "batch | assign | mixed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/kcenter", "kcenter binary for the serving workloads")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span dumps")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = traceFlag == 1
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}

	o.cal = newCalibrator()
	m := metrics{vals: map[string]float64{}}
	chk := &checker{}
	var err error
	switch o.workload {
	case "batch":
		err = runBatch(o, &m, chk)
	case "assign":
		err = runServing(o, assignWorkload, &m, chk)
	case "mixed":
		err = runServing(o, mixedWorkload, &m, chk)
	default:
		err = fmt.Errorf("unknown -workload %q (batch | assign | mixed)", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.trace {
		m.set("host.calib_ms", median(o.cal.samples))
	} else {
		fmt.Fprintf(os.Stderr, "calibration samples (ms): %.2f\nmeasured before scaling to the reference host: %s\n",
			o.cal.samples, strings.Join(m.raw, " "))
	}
	os.Exit(report(os.Stdout, o, &m, chk))
}

// report prints every metric by name with its unit, then the result line,
// and returns the exit code.
func report(w *os.File, o opts, m *metrics, chk *checker) int {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Correct: len(chk.failures) == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v, ok := m.vals[d.name]
		if !ok {
			v = 0 // a layer this workload leaves idle
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			chk.expect(false, "metric %s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-40s %16.6g %s\n", d.name, v, d.unit)
	}
	if extra := unknownMetrics(m); len(extra) > 0 {
		chk.expect(false, "metrics outside the declared set: %s", strings.Join(extra, ", "))
	}
	res.Correct = len(chk.failures) == 0
	if res.Attempted < 1 {
		res.Correct = false
		chk.expect(false, "no operation attempted")
	}
	for _, f := range chk.failures {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(w, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// unknownMetrics names values set outside both metric tables, which would
// mean a table and a workload disagree.
func unknownMetrics(m *metrics) []string {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	var out []string
	for name := range m.vals {
		if !known[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
