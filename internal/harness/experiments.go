package harness

import (
	"fmt"
	"io"
	"sort"

	"kcenter/internal/dataset"
	"kcenter/internal/metric"
	"kcenter/internal/mrg"
	"kcenter/internal/plot"
)

// RunConfig controls an experiment's scale and budget. The paper's full
// sizes (up to n = 1,000,000) regenerate in minutes; Scale divides every n
// for quicker verification runs at the same shape.
type RunConfig struct {
	// Scale divides the paper's n for each data set (minimum resulting n is
	// clamped to 1000). 1 reproduces the paper's sizes.
	Scale int
	// Repeats is how many (graph, run) repetitions are averaged per cell.
	// The paper uses 3 graphs × 2 runs for synthetic data and 4 runs for
	// real data; 0 means 3.
	Repeats int
	// Seed is the base seed; repetition r of experiment e derives
	// deterministic sub-seeds.
	Seed uint64
	// Machines is the simulated cluster size; 0 = the paper's 50.
	Machines int
	// Plot additionally renders figure experiments as ASCII charts
	// (log-log, as in the paper's figures).
	Plot bool
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.Machines <= 0 {
		c.Machines = 50
	}
	return c
}

func (c RunConfig) scaled(n int) int {
	n /= c.Scale
	if n < 1000 {
		n = 1000
	}
	return n
}

// Experiment reproduces one table or figure from the paper.
type Experiment struct {
	// ID is the registry key, e.g. "table2" or "fig4a".
	ID string
	// Title summarizes the workload.
	Title string
	// Paper states what the paper reports, for side-by-side comparison.
	Paper string
	// Run regenerates the artifact, writing rows/series to w.
	Run func(cfg RunConfig, w io.Writer) error
}

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

var registry []Experiment

// paperKs is the k sweep used by every table (Tables 2–7) and, in finer
// granularity, by the figures.
var paperKs = []int{2, 5, 10, 25, 50, 100}

// gen produces a data set of a given size for repetition-specific seeds.
type gen func(n int, seed uint64) *metric.Dataset

func genUnif(n int, seed uint64) *metric.Dataset {
	return dataset.Unif(dataset.UnifConfig{N: n, Seed: seed}).Points
}

func genGau(kPrime int) gen {
	return func(n int, seed uint64) *metric.Dataset {
		return dataset.Gau(dataset.GauConfig{N: n, KPrime: kPrime, Seed: seed}).Points
	}
}

func genUnb(kPrime int) gen {
	return func(n int, seed uint64) *metric.Dataset {
		return dataset.Unb(dataset.GauConfig{N: n, KPrime: kPrime, Seed: seed}).Points
	}
}

func genPoker(n int, seed uint64) *metric.Dataset {
	_ = n // the Poker Hand training set has a fixed size
	return dataset.PokerLike(seed).Points
}

func genKDD(n int, seed uint64) *metric.Dataset {
	return dataset.KDDLike(dataset.KDDLikeConfig{N: n, Seed: seed}).Points
}

// measureCell averages Repeats runs of spec over regenerated data sets.
func measureCell(cfg RunConfig, g gen, n int, spec RunSpec) (Measurement, error) {
	ms := make([]Measurement, 0, cfg.Repeats)
	for rep := 0; rep < cfg.Repeats; rep++ {
		seed := cfg.Seed*1_000_003 + uint64(rep)*7919 + uint64(n)
		ds := g(n, seed)
		spec.Seed = seed ^ 0xabcdef
		spec.Machines = cfg.Machines
		m, err := RunOne(ds, spec)
		if err != nil {
			return Measurement{}, err
		}
		ms = append(ms, m)
	}
	return Aggregate(ms), nil
}

// algoComparison renders one paper table/figure: for each k, a row with one
// column per algorithm. quantity selects the reported measurement.
func algoComparison(cfg RunConfig, w io.Writer, g gen, baseN int, ks []int, quantity string) error {
	cfg = cfg.withDefaults()
	n := cfg.scaled(baseN)
	fmt.Fprintf(w, "# n = %d (paper: %d), m = %d, repeats = %d, reporting %s\n",
		n, baseN, cfg.Machines, cfg.Repeats, quantity)
	switch quantity {
	case "value":
		fmt.Fprintf(w, "%6s %14s %14s %14s\n", "k", "MRG", "EIM", "GON")
	case "runtime":
		runtimeHeader(w, "k")
	default:
		return fmt.Errorf("harness: unknown quantity %q", quantity)
	}
	series := newSeriesSet()
	for _, k := range ks {
		row := make(map[Algorithm]Measurement, 3)
		for _, algo := range []Algorithm{MRG, EIM, GON} {
			m, err := measureCell(cfg, g, n, RunSpec{Algo: algo, K: k})
			if err != nil {
				return fmt.Errorf("k=%d algo=%s: %w", k, algo, err)
			}
			row[algo] = m
		}
		if quantity == "value" {
			fmt.Fprintf(w, "%6d %14.4g %14.4g %14.4g\n",
				k, row[MRG].Value, row[EIM].Value, row[GON].Value)
			series.add(float64(k), row, func(m Measurement) float64 { return m.Value })
		} else {
			runtimeRow(w, k, row)
			series.add(float64(k), row, func(m Measurement) float64 { return m.Seconds })
		}
	}
	if cfg.Plot {
		return series.render(w, quantity+" over k", "k", quantity)
	}
	return nil
}

// runtimeAlgos is the column order of the runtime tables.
var runtimeAlgos = []Algorithm{MRG, EIM, GON}

// runtimeHeader writes the runtime tables' legend and column header: per
// algorithm the seconds charged to it and SimOps, the paper's
// distance-evaluation charge. Host-side pruning (GON's blocked traversal,
// EIM's sorted sweep) moves the seconds and never the ops, so the ops
// columns carry the paper's comparison.
func runtimeHeader(w io.Writer, x string) {
	fmt.Fprintln(w, "# s: seconds charged (GON: host wall time; MRG, EIM: simulated makespan of host wall times)")
	fmt.Fprintln(w, "# ops: SimOps, the paper's charge in distance evaluations on the simulated critical path (GON: k·n)")
	fmt.Fprintf(w, "%10s", x)
	for _, a := range runtimeAlgos {
		fmt.Fprintf(w, " %12s %14s", a+" s", a+" ops")
	}
	fmt.Fprintln(w)
}

// runtimeRow writes one runtime-table row: x (k or n), then each
// algorithm's seconds and SimOps.
func runtimeRow(w io.Writer, x int, row map[Algorithm]Measurement) {
	fmt.Fprintf(w, "%10d", x)
	for _, a := range runtimeAlgos {
		fmt.Fprintf(w, " %12.6f %14d", row[a].Seconds, row[a].SimOps)
	}
	if row[EIM].FellBack {
		fmt.Fprint(w, "  (EIM fell back to GON)")
	}
	fmt.Fprintln(w)
}

// seriesSet accumulates the three algorithm curves for plotting.
type seriesSet struct {
	x                []float64
	mrgY, eimY, gonY []float64
}

func newSeriesSet() *seriesSet { return &seriesSet{} }

func (s *seriesSet) add(x float64, row map[Algorithm]Measurement, pick func(Measurement) float64) {
	s.x = append(s.x, x)
	s.mrgY = append(s.mrgY, pick(row[MRG]))
	s.eimY = append(s.eimY, pick(row[EIM]))
	s.gonY = append(s.gonY, pick(row[GON]))
}

func (s *seriesSet) render(w io.Writer, title, xLabel, yLabel string) error {
	fmt.Fprintln(w)
	return plot.Render(w, plot.Config{
		Title: title, XLabel: xLabel, YLabel: yLabel, LogY: true,
	},
		plot.Series{Name: "MRG", X: s.x, Y: s.mrgY},
		plot.Series{Name: "EIM", X: s.x, Y: s.eimY},
		plot.Series{Name: "GON", X: s.x, Y: s.gonY},
	)
}

// scaleSweep renders Figure 4: runtime over n at fixed k.
func scaleSweep(cfg RunConfig, w io.Writer, g gen, baseNs []int, k int) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# k = %d, m = %d, repeats = %d, runtime over n\n",
		k, cfg.Machines, cfg.Repeats)
	runtimeHeader(w, "n")
	series := newSeriesSet()
	for _, baseN := range baseNs {
		n := cfg.scaled(baseN)
		row := make(map[Algorithm]Measurement, 3)
		for _, algo := range []Algorithm{MRG, EIM, GON} {
			m, err := measureCell(cfg, g, n, RunSpec{Algo: algo, K: k})
			if err != nil {
				return fmt.Errorf("n=%d algo=%s: %w", n, algo, err)
			}
			row[algo] = m
		}
		runtimeRow(w, n, row)
		series.add(float64(n), row, func(m Measurement) float64 { return m.Seconds })
	}
	if cfg.Plot {
		return series.render(w, "runtime over n", "n", "seconds")
	}
	return nil
}

// phiSweep renders Tables 6 and 7: EIM over φ ∈ {1,4,6,8} × k.
func phiSweep(cfg RunConfig, w io.Writer, g gen, baseN int, quantity string) error {
	cfg = cfg.withDefaults()
	n := cfg.scaled(baseN)
	phis := []float64{1, 4, 6, 8}
	fmt.Fprintf(w, "# EIM over phi, n = %d (paper: %d), m = %d, repeats = %d, reporting %s\n",
		n, baseN, cfg.Machines, cfg.Repeats, quantity)
	if quantity == "runtime" {
		fmt.Fprintln(w, "# s: EIM's simulated makespan of host wall times; ops: SimOps, the paper's charge in distance evaluations")
	}
	fmt.Fprintf(w, "%6s", "k")
	for _, phi := range phis {
		if quantity == "runtime" {
			fmt.Fprintf(w, " %12s %14s", fmt.Sprintf("phi=%g s", phi), fmt.Sprintf("phi=%g ops", phi))
		} else {
			fmt.Fprintf(w, " %12s", fmt.Sprintf("phi=%g", phi))
		}
	}
	fmt.Fprintln(w)
	for _, k := range paperKs {
		fmt.Fprintf(w, "%6d", k)
		for _, phi := range phis {
			m, err := measureCell(cfg, g, n, RunSpec{Algo: EIM, K: k, Phi: phi})
			if err != nil {
				return fmt.Errorf("k=%d phi=%v: %w", k, phi, err)
			}
			switch quantity {
			case "value":
				fmt.Fprintf(w, " %12.4g", m.Value)
			case "runtime":
				fmt.Fprintf(w, " %12.6f %14d", m.Seconds, m.SimOps)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

func init() {
	// Append rather than assign so registrations from other files in this
	// package (e.g. the streaming experiment) survive any init order.
	registry = append(registry, []Experiment{
		{
			ID:    "table1",
			Title: "Theoretical comparison: approximation factor, rounds, runtime",
			Paper: "GON: α=2, k·n; MRG: α=4, 2 rounds, kn/m + k²m; EIM: α=10, O(1/ε) rounds, kn^(1+ε)·log n / (m(1-n^-ε)²)",
			Run: func(cfg RunConfig, w io.Writer) error {
				cfg = cfg.withDefaults()
				fmt.Fprintln(w, "Algorithm  alpha  Rounds      Runtime (asymptotic)")
				fmt.Fprintln(w, "GON        2      n/a         k*n")
				fmt.Fprintln(w, "MRG        4      2           k*n/m + k^2*m")
				fmt.Fprintln(w, "EIM        10     O(1/eps)    k*n^(1+eps)*log n / (m*(1-n^-eps)^2)")
				fmt.Fprintln(w)
				// Machine-count recurrence of Inequality (1): confirm the
				// multi-round machine counts converge when 2k < c.
				fmt.Fprintln(w, "Inequality (1) machine-count recurrence m(i), n=1e6, m=50, c=20000:")
				for _, k := range []int{10, 100, 1000, 9000} {
					fmt.Fprintf(w, "  k=%5d:", k)
					for i := 1; i <= 4; i++ {
						fmt.Fprintf(w, "  m(%d)=%8.2f", i, mrg.PredictMachines(1_000_000, k, 50, 20000, i))
					}
					fmt.Fprintln(w)
				}
				return nil
			},
		},
		{
			ID:    "fig1",
			Title: "Solution values over k on KDD CUP 1999 (KDD-like substitute)",
			Paper: "All algorithms plateau between 1e4 and 1e9; EIM performs poorly on this data set",
			Run: func(cfg RunConfig, w io.Writer) error {
				return algoComparison(cfg, w, genKDD, 494021, paperKs, "value")
			},
		},
		{
			ID:    "fig2a",
			Title: "Runtime over k, GAU n=1,000,000 k'=25",
			Paper: "EIM slowest (1-100s), GON middle (0.1-10s), MRG fastest (~100x below GON)",
			Run: func(cfg RunConfig, w io.Writer) error {
				return algoComparison(cfg, w, genGau(25), 1_000_000, paperKs, "runtime")
			},
		},
		{
			ID:    "fig2b",
			Title: "Runtime over k, UNIF n=100,000",
			Paper: "Same ordering as fig2a at smaller scale",
			Run: func(cfg RunConfig, w io.Writer) error {
				return algoComparison(cfg, w, genUnif, 100_000, paperKs, "runtime")
			},
		},
		{
			ID:    "fig3a",
			Title: "Runtime over k, GAU n=1,000,000 k'=50",
			Paper: "Same ordering as fig2a; EIM slowest",
			Run: func(cfg RunConfig, w io.Writer) error {
				return algoComparison(cfg, w, genGau(50), 1_000_000, paperKs, "runtime")
			},
		},
		{
			ID:    "fig3b",
			Title: "Runtime over k, GAU n=50,000 k'=50 — EIM fallback regime",
			Paper: "When k grows relative to n, EIM stops sampling and matches GON",
			Run: func(cfg RunConfig, w io.Writer) error {
				return algoComparison(cfg, w, genGau(50), 50_000, paperKs, "runtime")
			},
		},
		{
			ID:    "fig4a",
			Title: "Runtime over n at k=10 (n = 10,000 … 1,000,000)",
			Paper: "All algorithms scale roughly linearly in n; MRG fastest throughout",
			Run: func(cfg RunConfig, w io.Writer) error {
				return scaleSweep(cfg, w, genUnif,
					[]int{10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000}, 10)
			},
		},
		{
			ID:    "fig4b",
			Title: "Runtime over n at k=100 — k²·m term and EIM fallback visible",
			Paper: "For small n, EIM behaves identically to GON; MRG shows the k²m term before kn/m dominates",
			Run: func(cfg RunConfig, w io.Writer) error {
				return scaleSweep(cfg, w, genUnif,
					[]int{10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000}, 100)
			},
		},
		{
			ID:    "table2",
			Title: "Solution value over k, GAU n=1,000,000 k'=25",
			Paper: "k=2: ~96/93/96; k=25 (=k'): 0.961/0.854/0.961 — EIM slightly best at k=k'",
			Run: func(cfg RunConfig, w io.Writer) error {
				return algoComparison(cfg, w, genGau(25), 1_000_000, paperKs, "value")
			},
		},
		{
			ID:    "table3",
			Title: "Solution value over k, UNIF n=100,000",
			Paper: "k=2: ~91-96; k=100: ~8.7-9.1 — all three comparable",
			Run: func(cfg RunConfig, w io.Writer) error {
				return algoComparison(cfg, w, genUnif, 100_000, paperKs, "value")
			},
		},
		{
			ID:    "table4",
			Title: "Solution value over k, UNB n=200,000 k'=25",
			Paper: "EIM notably best at k=k'=25: 0.828 vs 0.932 (MRG) / 0.939 (GON)",
			Run: func(cfg RunConfig, w io.Writer) error {
				return algoComparison(cfg, w, genUnb(25), 200_000, paperKs, "value")
			},
		},
		{
			ID:    "table5",
			Title: "Solution value over k, POKER HAND (Poker-like substitute)",
			Paper: "Values in a narrow 8.4-19.4 band across k=2..100",
			Run: func(cfg RunConfig, w io.Writer) error {
				return algoComparison(cfg, w, genPoker, 25_010, paperKs, "value")
			},
		},
		{
			ID:    "table6",
			Title: "EIM average solution value over phi, GAU n=200,000 k'=25",
			Paper: "Lower phi sometimes improves quality (e.g. k=25: phi=4 best at 0.780)",
			Run: func(cfg RunConfig, w io.Writer) error {
				return phiSweep(cfg, w, genGau(25), 200_000, "value")
			},
		},
		{
			ID:    "table7",
			Title: "EIM average runtime over phi, GAU n=200,000 k'=25",
			Paper: "Runtime drops sharply below phi=6 (e.g. k=100: 0.73s at phi=1 vs 3.6s at phi=8)",
			Run: func(cfg RunConfig, w io.Writer) error {
				return phiSweep(cfg, w, genGau(25), 200_000, "runtime")
			},
		},
	}...)
}
