// Benchmarks regenerating every table and figure of McClintock & Wirth
// (ICPP 2016), one Benchmark per artifact, plus ablations for the design
// choices called out in DESIGN.md §4.
//
// Benchmarks run at a reduced scale (the paper's n divided by ~20) so the
// full suite completes in minutes; cmd/experiments regenerates the artifacts
// at any scale including the paper's full sizes. Each benchmark reports the
// solution value via b.ReportMetric so quality regressions show up alongside
// time regressions.
package kcenter

import (
	"math"
	"runtime"
	"testing"

	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/eim"
	"kcenter/internal/harness"
	"kcenter/internal/mapreduce"
	"kcenter/internal/metric"
	"kcenter/internal/mrg"
	"kcenter/internal/rng"
	"kcenter/internal/stream"
)

// benchAlgos runs the three algorithm families over a fixed dataset as
// sub-benchmarks, reporting the covering radius of the last run.
func benchAlgos(b *testing.B, ds *metric.Dataset, k int) {
	b.Helper()
	for _, algo := range []harness.Algorithm{harness.MRG, harness.EIM, harness.GON} {
		algo := algo
		b.Run(string(algo)+"/k="+itoa(k), func(b *testing.B) {
			var last harness.Measurement
			for i := 0; i < b.N; i++ {
				m, err := harness.RunOne(ds, harness.RunSpec{Algo: algo, K: k, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(last.Value, "radius")
			b.ReportMetric(float64(last.SimOps), "sim-ops")
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// --- Table 1: theory ---------------------------------------------------

// BenchmarkTable1Formulas evaluates the Inequality (1) machine-count
// recurrence; it also sanity-asserts the convergence behaviour the paper
// derives in §3.3 (converges only when k is well below c).
func BenchmarkTable1Formulas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		conv := mrg.PredictMachines(1_000_000, 10, 50, 20000, 8)
		stuck := mrg.PredictMachines(1_000_000, 9000, 50, 20000, 8)
		if conv > 1.5 || stuck < 1.5 {
			b.Fatalf("recurrence shape wrong: conv=%v stuck=%v", conv, stuck)
		}
	}
}

// --- Figure 1: KDD CUP 1999 solution values -----------------------------

func BenchmarkFig1KDDQuality(b *testing.B) {
	l := dataset.KDDLike(dataset.KDDLikeConfig{N: 25000, Seed: 1})
	benchAlgos(b, l.Points, 25)
}

// --- Figure 2: runtime vs k --------------------------------------------

func BenchmarkFig2aRuntimeGAU(b *testing.B) {
	l := dataset.Gau(dataset.GauConfig{N: 50000, KPrime: 25, Seed: 2})
	benchAlgos(b, l.Points, 25)
}

func BenchmarkFig2bRuntimeUNIF(b *testing.B) {
	l := dataset.Unif(dataset.UnifConfig{N: 50000, Seed: 3})
	benchAlgos(b, l.Points, 25)
}

// --- Figure 3: runtime vs k on GAU, incl. EIM fallback regime -----------

func BenchmarkFig3aRuntimeGAU(b *testing.B) {
	l := dataset.Gau(dataset.GauConfig{N: 50000, KPrime: 50, Seed: 4})
	benchAlgos(b, l.Points, 50)
}

// BenchmarkFig3bEIMFallback exercises the regime where k is large relative
// to n: EIM's while-condition never holds and it degenerates to GON (the
// paper's Figure 3b/4b observation). The assertion inside keeps the bench
// honest about which code path runs.
func BenchmarkFig3bEIMFallback(b *testing.B) {
	l := dataset.Gau(dataset.GauConfig{N: 5000, KPrime: 50, Seed: 5})
	for i := 0; i < b.N; i++ {
		res, err := eim.Run(l.Points, eim.Config{K: 100, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.FellBack {
			b.Fatal("expected the fallback regime at n=5000, k=100")
		}
	}
}

// --- Figure 4: runtime vs n ---------------------------------------------

func BenchmarkFig4aScaleN_k10(b *testing.B) {
	for _, n := range []int{10000, 50000, 100000} {
		l := dataset.Unif(dataset.UnifConfig{N: n, Seed: 6})
		b.Run("n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mrg.Run(l.Points, mrg.Config{K: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig4bScaleN_k100(b *testing.B) {
	for _, n := range []int{10000, 50000, 100000} {
		l := dataset.Unif(dataset.UnifConfig{N: n, Seed: 7})
		b.Run("n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mrg.Run(l.Points, mrg.Config{K: 100}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Tables 2-5: solution values ----------------------------------------

func BenchmarkTable2GAUValues(b *testing.B) {
	l := dataset.Gau(dataset.GauConfig{N: 50000, KPrime: 25, Seed: 8})
	benchAlgos(b, l.Points, 25)
}

func BenchmarkTable3UNIFValues(b *testing.B) {
	l := dataset.Unif(dataset.UnifConfig{N: 50000, Seed: 9})
	benchAlgos(b, l.Points, 10)
}

func BenchmarkTable4UNBValues(b *testing.B) {
	l := dataset.Unb(dataset.GauConfig{N: 50000, KPrime: 25, Seed: 10})
	benchAlgos(b, l.Points, 25)
}

func BenchmarkTable5Poker(b *testing.B) {
	// k = 10 keeps EIM in its sampling regime on the 25,010-row set; at
	// k >= 25 the threshold exceeds n and EIM falls back to GON.
	l := dataset.PokerLike(11)
	benchAlgos(b, l.Points, 10)
}

// --- Tables 6-7: EIM phi sweep ------------------------------------------

func BenchmarkTable6PhiQuality(b *testing.B) {
	l := dataset.Gau(dataset.GauConfig{N: 50000, KPrime: 25, Seed: 12})
	for _, phi := range []float64{1, 4, 6, 8} {
		phi := phi
		b.Run("phi="+itoa(int(phi)), func(b *testing.B) {
			var last *eim.Result
			for i := 0; i < b.N; i++ {
				res, err := eim.Run(l.Points, eim.Config{K: 25, Phi: phi, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Radius, "radius")
		})
	}
}

func BenchmarkTable7PhiRuntime(b *testing.B) {
	l := dataset.Gau(dataset.GauConfig{N: 50000, KPrime: 25, Seed: 13})
	for _, phi := range []float64{1, 4, 6, 8} {
		phi := phi
		b.Run("phi="+itoa(int(phi)), func(b *testing.B) {
			var simSeconds float64
			for i := 0; i < b.N; i++ {
				res, err := eim.Run(l.Points, eim.Config{K: 25, Phi: phi, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				simSeconds = res.Stats.SimulatedWall().Seconds()
			}
			b.ReportMetric(simSeconds*1e3, "sim-ms")
		})
	}
}

// --- Ablations (DESIGN.md §4) --------------------------------------------

// BenchmarkAblationLayout compares the flat contiguous dataset layout
// against a [][]float64 layout on the Gonzalez inner loop.
func BenchmarkAblationLayout(b *testing.B) {
	const n, dim = 20000, 8
	r := rng.New(14)
	flat := metric.NewDataset(n, dim)
	for i := range flat.Data {
		flat.Data[i] = r.Float64()
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = append([]float64(nil), flat.At(i)...)
	}
	q := make([]float64, dim)
	for i := range q {
		q[i] = r.Float64()
	}
	b.Run("flat", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			for p := 0; p < n; p++ {
				sink += metric.SqDist(flat.At(p), q)
			}
		}
		_ = sink
	})
	b.Run("rows", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			for p := 0; p < n; p++ {
				sink += metric.SqDist(rows[p], q)
			}
		}
		_ = sink
	})
}

// BenchmarkAblationSqrtInLoop quantifies comparing squared distances inside
// the traversal versus taking a square root per evaluation.
func BenchmarkAblationSqrtInLoop(b *testing.B) {
	const n, dim = 20000, 8
	r := rng.New(15)
	ds := metric.NewDataset(n, dim)
	for i := range ds.Data {
		ds.Data[i] = r.Float64()
	}
	q := make([]float64, dim)
	for i := range q {
		q[i] = r.Float64()
	}
	b.Run("squared", func(b *testing.B) {
		var min float64
		for i := 0; i < b.N; i++ {
			min = math.Inf(1)
			for p := 0; p < n; p++ {
				if sq := metric.SqDist(ds.At(p), q); sq < min {
					min = sq
				}
			}
		}
		_ = min
	})
	b.Run("sqrt", func(b *testing.B) {
		var min float64
		for i := 0; i < b.N; i++ {
			min = math.Inf(1)
			for p := 0; p < n; p++ {
				if d := math.Sqrt(metric.SqDist(ds.At(p), q)); d < min {
					min = d
				}
			}
		}
		_ = min
	})
}

// BenchmarkAblationWorkers compares the real wall-clock of MRG when the
// engine executes reducers on one OS worker versus all cores. Simulated
// cost is identical; this measures host-side execution only.
func BenchmarkAblationWorkers(b *testing.B) {
	l := dataset.Unif(dataset.UnifConfig{N: 100000, Seed: 16})
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		workers := workers
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := mrg.Run(l.Points, mrg.Config{
					K:       25,
					Cluster: mapreduce.Config{Machines: 50, Workers: workers},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGonzalezSeed measures the sensitivity of GON to its
// arbitrary first center (paper §3.1 "chooses an arbitrary vertex").
func BenchmarkAblationGonzalezSeed(b *testing.B) {
	l := dataset.Gau(dataset.GauConfig{N: 50000, KPrime: 25, Seed: 17})
	var worst, best float64 = 0, math.Inf(1)
	for i := 0; i < b.N; i++ {
		res := core.Gonzalez(l.Points, 25, core.Options{First: (i * 7919) % l.Points.N})
		if res.Radius > worst {
			worst = res.Radius
		}
		if res.Radius < best {
			best = res.Radius
		}
	}
	if best < math.Inf(1) {
		b.ReportMetric(worst/best, "worst/best-radius")
	}
}

// --- Streaming (not in the paper: insertion-only extension) --------------

// BenchmarkStreamPush measures single-summary ingestion cost per point: the
// steady-state hot path is one nearest-center scan (≤ k squared distances)
// per push, independent of how many points came before.
func BenchmarkStreamPush(b *testing.B) {
	l := dataset.Gau(dataset.GauConfig{N: 100000, KPrime: 25, Seed: 19})
	for _, k := range []int{10, 100} {
		k := k
		b.Run("k="+itoa(k), func(b *testing.B) {
			s := stream.NewSummary(k, stream.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Push(l.Points.At(i % l.Points.N))
			}
			b.ReportMetric(float64(s.Count()), "centers")
			b.ReportMetric(float64(s.Merges()), "doublings")
		})
	}
}

// BenchmarkShardedThroughput measures end-to-end sharded ingestion
// (Push fan-out, shard summaries, final merge) from a single producer,
// reporting points/second and the realized-vs-batch quality ratio. The
// shard counts are fixed (not GOMAXPROCS-derived) so rows are comparable
// across hosts and across the -cpu 1,2 sweep scripts/bench.sh runs.
func BenchmarkShardedThroughput(b *testing.B) {
	l := dataset.Unif(dataset.UnifConfig{N: 100000, Seed: 20})
	gon := core.Gonzalez(l.Points, 25, core.Options{First: 0})
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			var last harness.StreamMeasurement
			for i := 0; i < b.N; i++ {
				m, err := harness.RunStream(l.Points, harness.StreamSpec{K: 25, Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(last.PointsPerSec, "pts/s")
			b.ReportMetric(last.Value/gon.Radius, "radius-vs-GON")
		})
	}
}
