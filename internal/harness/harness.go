// Package harness turns the paper's evaluation section into runnable,
// parameterized experiments. Every table and figure has an Experiment in the
// registry (experiments.go); cmd/experiments regenerates them from the
// command line and bench_test.go wraps them as testing.B benchmarks.
//
// Methodology mirrors §7: m = 50 simulated machines, GON as the sequential
// baseline and as the sub-procedure of both parallel algorithms, runtimes
// reported as the simulated parallel makespan (per-round max over machines,
// data movement not charged), and solution values as covering radii over the
// full input. Synthetic data sets are regenerated per repetition with fresh
// seeds and results averaged, as in §7.3.
package harness

import (
	"fmt"
	"math"
	"time"

	"kcenter/internal/core"
	"kcenter/internal/eim"
	"kcenter/internal/mapreduce"
	"kcenter/internal/metric"
	"kcenter/internal/mrg"
)

// Algorithm names one of the three algorithm families compared in the paper.
type Algorithm string

// The three algorithm families of §7.1.
const (
	GON Algorithm = "GON" // sequential Gonzalez, factor 2
	MRG Algorithm = "MRG" // MapReduce Gonzalez, factor 4 in two rounds
	EIM Algorithm = "EIM" // generalized iterative sampling, factor 10 w.s.p.
)

// RunSpec describes one algorithm invocation.
type RunSpec struct {
	Algo     Algorithm
	K        int
	Machines int     // simulated machines; 0 = the paper's 50
	Phi      float64 // EIM only; 0 = the original φ = 8
	Epsilon  float64 // EIM only; 0 = the paper's ε = 0.1
	Seed     uint64
}

// Measurement is the outcome of one algorithm invocation.
type Measurement struct {
	// Value is the k-center objective (covering radius) over the full input.
	Value float64
	// Seconds is the runtime charged to the algorithm: real wall time for
	// GON, simulated parallel makespan (Σ rounds max-machine) for MRG/EIM.
	Seconds float64
	// SimOps is the deterministic cost analogue of Seconds (distance
	// evaluations on the simulated critical path; k·n for GON).
	SimOps int64
	// Rounds is the number of MapReduce rounds (0 for GON).
	Rounds int
	// Iterations is the number of main-loop iterations (MRG while-loop
	// rounds, EIM sampling iterations; 0 for GON).
	Iterations int
	// FellBack reports EIM's no-sampling degenerate mode (Fig. 3b/4b).
	FellBack bool
}

// RunOne executes spec over ds.
func RunOne(ds *metric.Dataset, spec RunSpec) (Measurement, error) {
	machines := spec.Machines
	if machines <= 0 {
		machines = 50
	}
	switch spec.Algo {
	case GON:
		start := time.Now()
		res := core.Gonzalez(ds, spec.K, core.Options{First: 0})
		elapsed := time.Since(start)
		// GON's radius over the full set is already exact; reuse it.
		return Measurement{
			Value:   res.Radius,
			Seconds: elapsed.Seconds(),
			SimOps:  res.DistEvals,
		}, nil
	case MRG:
		res, err := mrg.Run(ds, mrg.Config{
			K:       spec.K,
			Cluster: mapreduce.Config{Machines: machines},
		})
		if err != nil {
			return Measurement{}, err
		}
		return Measurement{
			Value:      res.Radius,
			Seconds:    res.Stats.SimulatedWall().Seconds(),
			SimOps:     res.Stats.SimulatedOps(),
			Rounds:     res.MapReduceRounds,
			Iterations: res.Iterations,
		}, nil
	case EIM:
		res, err := eim.Run(ds, eim.Config{
			K:       spec.K,
			Phi:     spec.Phi,
			Epsilon: spec.Epsilon,
			Cluster: mapreduce.Config{Machines: machines},
			Seed:    spec.Seed,
		})
		if err != nil {
			return Measurement{}, err
		}
		return Measurement{
			Value:      res.Radius,
			Seconds:    res.Stats.SimulatedWall().Seconds(),
			SimOps:     res.Stats.SimulatedOps(),
			Rounds:     res.MapReduceRounds,
			Iterations: res.Iterations,
			FellBack:   res.FellBack,
		}, nil
	default:
		return Measurement{}, fmt.Errorf("harness: unknown algorithm %q", spec.Algo)
	}
}

// Aggregate averages measurements, as the paper does over repeated runs on
// regenerated graphs.
func Aggregate(ms []Measurement) Measurement {
	if len(ms) == 0 {
		return Measurement{}
	}
	var out Measurement
	for _, m := range ms {
		out.Value += m.Value
		out.Seconds += m.Seconds
		out.SimOps += m.SimOps
		out.Rounds += m.Rounds
		out.Iterations += m.Iterations
		if m.FellBack {
			out.FellBack = true
		}
	}
	n := float64(len(ms))
	out.Value /= n
	out.Seconds /= n
	out.SimOps = int64(float64(out.SimOps) / n)
	out.Rounds = int(math.Round(float64(out.Rounds) / n))
	out.Iterations = int(math.Round(float64(out.Iterations) / n))
	return out
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
