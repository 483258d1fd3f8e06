package mrg

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"kcenter/internal/assign"
	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/mapreduce"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// runReference is Algorithm 1 as written: S is a list of dataset indices,
// the mappers cut it into index partitions, each reducer runs
// GonzalezSubset on its partition, and the final round runs it on S. Run
// must return the same result from row ranges of one Dataset.
func runReference(ds *metric.Dataset, cfg Config) (*Result, error) {
	n := ds.N
	cluster := cfg.Cluster
	if cluster.Machines <= 0 {
		cluster.Machines = 50
	}
	m := cluster.Machines
	if cluster.Capacity == 0 {
		cluster.Capacity = max((n+m-1)/m, cfg.K*m)
	}
	engine, err := mapreduce.NewEngine(cluster)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: engine.Stats()}
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	c := cluster.Capacity
	for len(s) > c {
		mi := m
		if res.Iterations > 0 {
			mi = min((len(s)+c-1)/c, m)
		}
		parts := mapreduce.Partition(len(s), mi)
		for _, part := range parts {
			for j := range part {
				part[j] = s[part[j]]
			}
		}
		centerSets := make([][]int, len(parts))
		tasks := make([]mapreduce.Task, len(parts))
		for i, part := range parts {
			i, part := i, part
			tasks[i] = func(ops *mapreduce.OpCounter) error {
				g := core.GonzalezSubset(ds, part, cfg.K, core.Options{First: 0})
				ops.Add(g.DistEvals)
				centerSets[i] = g.Centers
				return nil
			}
		}
		if _, err := engine.Run(fmt.Sprintf("mrg-parallel-%d", res.Iterations+1), tasks); err != nil {
			return nil, err
		}
		var next []int
		for _, cs := range centerSets {
			next = append(next, cs...)
		}
		s = next
		res.Iterations++
		res.SampleSizes = append(res.SampleSizes, len(s))
	}
	task := func(ops *mapreduce.OpCounter) error {
		g := core.GonzalezSubset(ds, s, cfg.K, core.Options{First: 0})
		ops.Add(g.DistEvals)
		res.Centers = g.Centers
		return nil
	}
	if _, err := engine.Run("mrg-final", []mapreduce.Task{task}); err != nil {
		return nil, err
	}
	res.MapReduceRounds = res.Iterations + 1
	res.ApproxFactor = 2 * float64(res.Iterations+1)
	res.Evaluation = assign.Evaluate(ds, res.Centers, 0)
	res.Radius = res.Evaluation.Radius
	return res, nil
}

// TestMRGMatchesIndexPartitions pins Run against runReference: centers,
// radius, every Evaluation field but DistEvals, the sample sizes, the
// iteration count and each round's name and operation counts. The inputs
// put the reducers on both sides of the blocked layout's rule (k below and
// from 20, partitions below and above 8,192 points) at dims 1 to 3, run
// several iterations, and hold ties and coordinates whose squared
// differences overflow. With one engine worker every reducer of every
// round shares one traversal scratch, so a stale count, minSq or box left
// by a previous reducer would show.
func TestMRGMatchesIndexPartitions(t *testing.T) {
	r := rng.New(41)
	gen := func(n, dim int, coord func() float64) *metric.Dataset {
		ds := metric.NewDataset(n, dim)
		for i := range ds.Data {
			ds.Data[i] = coord()
		}
		return ds
	}
	gau := func(n, dim int) *metric.Dataset {
		return dataset.Gau(dataset.GauConfig{N: n, KPrime: 25, Dim: dim, Seed: r.Uint64()}).Points
	}
	type run struct {
		name  string
		ds    *metric.Dataset
		cfg   Config
		short bool // in the race gate's -short set
	}
	var runs []run
	for _, dim := range []int{1, 2, 3} {
		blocked := gau(40_000, dim) // 4 partitions of 10,000
		plain := gau(30_000, dim)   // 4 partitions of 7,500
		for _, k := range []int{10, 20, 50} {
			cfg := Config{K: k, Cluster: mapreduce.Config{Machines: 4}}
			short := dim == 2 && k == 20
			runs = append(runs,
				run{fmt.Sprintf("gau dim=%d n=40000 k=%d", dim, k), blocked, cfg, short},
				run{fmt.Sprintf("gau dim=%d n=30000 k=%d", dim, k), plain, cfg, short})
		}
	}
	multi := Config{K: 5, Cluster: mapreduce.Config{Machines: 40, Capacity: 100}}
	runs = append(runs,
		run{"multi-round", dataset.Unif(dataset.UnifConfig{N: 4000, Seed: 3}).Points, multi, true},
		run{"multi-round gau dim=2", gau(4000, 2), multi, false},
		// Integer coordinates in [0, 32]: duplicates and equal distances.
		run{"tie grid k=25", gen(20_000, 2, func() float64 { return float64(r.Intn(33)) }),
			Config{K: 25, Cluster: mapreduce.Config{Machines: 2}}, false},
		run{"tie grid k=10", gen(20_000, 2, func() float64 { return float64(r.Intn(33)) }),
			Config{K: 10, Cluster: mapreduce.Config{Machines: 2}}, false},
		// Differences up to 2e154 square past MaxFloat64.
		run{"overflow k=25", gen(20_000, 2, func() float64 { return r.Float64Range(-1e154, 1e154) }),
			Config{K: 25, Cluster: mapreduce.Config{Machines: 2}}, false},
		run{"overflow dim=1 k=10", gen(20_000, 1, func() float64 { return r.Float64Range(-1e154, 1e154) }),
			Config{K: 10, Cluster: mapreduce.Config{Machines: 2}}, false},
	)
	workers := []int{1, 2, 3, 7}
	if testing.Short() {
		// The race gate: one blocked and one plain shape and the
		// multi-round config, with every reducer on one scratch and on
		// uneven shares.
		workers = []int{1, 3}
	}
	for _, rn := range runs {
		if testing.Short() && !rn.short {
			continue
		}
		want, err := runReference(rn.ds, rn.cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", rn.name, err)
		}
		for _, w := range workers {
			cfg := rn.cfg
			cfg.Cluster.Workers = w
			got, err := Run(rn.ds, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", rn.name, w, err)
			}
			requireSameRun(t, fmt.Sprintf("%s workers=%d", rn.name, w), got, want)
		}
	}
}

func requireSameRun(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if fmt.Sprint(got.Centers) != fmt.Sprint(want.Centers) {
		t.Fatalf("%s: centers %v, reference %v", label, got.Centers, want.Centers)
	}
	if math.Float64bits(got.Radius) != math.Float64bits(want.Radius) {
		t.Fatalf("%s: radius %v, reference %v", label, got.Radius, want.Radius)
	}
	if got.Iterations != want.Iterations || got.MapReduceRounds != want.MapReduceRounds ||
		got.ApproxFactor != want.ApproxFactor || fmt.Sprint(got.SampleSizes) != fmt.Sprint(want.SampleSizes) {
		t.Fatalf("%s: iterations %d rounds %d factor %v samples %v, reference %d %d %v %v", label,
			got.Iterations, got.MapReduceRounds, got.ApproxFactor, got.SampleSizes,
			want.Iterations, want.MapReduceRounds, want.ApproxFactor, want.SampleSizes)
	}
	gr, wr := got.Stats.Rounds, want.Stats.Rounds
	if len(gr) != len(wr) {
		t.Fatalf("%s: %d rounds, reference %d", label, len(gr), len(wr))
	}
	for i := range wr {
		if gr[i].Name != wr[i].Name || gr[i].Tasks != wr[i].Tasks ||
			gr[i].MaxOps != wr[i].MaxOps || gr[i].SumOps != wr[i].SumOps {
			t.Fatalf("%s: round %d is %s (%d tasks, max %d, sum %d ops), reference %s (%d, %d, %d)", label, i,
				gr[i].Name, gr[i].Tasks, gr[i].MaxOps, gr[i].SumOps, wr[i].Name, wr[i].Tasks, wr[i].MaxOps, wr[i].SumOps)
		}
	}
	ge, we := got.Evaluation, want.Evaluation
	if math.Float64bits(ge.Radius) != math.Float64bits(we.Radius) || ge.Farthest != we.Farthest {
		t.Fatalf("%s: evaluation radius %v farthest %d, reference %v %d", label, ge.Radius, ge.Farthest, we.Radius, we.Farthest)
	}
	for i := range we.Assignment {
		if ge.Assignment[i] != we.Assignment[i] || math.Float64bits(ge.Dist[i]) != math.Float64bits(we.Dist[i]) {
			t.Fatalf("%s: point %d assigned %d at %v, reference %d at %v", label, i,
				ge.Assignment[i], ge.Dist[i], we.Assignment[i], we.Dist[i])
		}
	}
	if fmt.Sprint(ge.ClusterSizes) != fmt.Sprint(we.ClusterSizes) {
		t.Fatalf("%s: cluster sizes %v, reference %v", label, ge.ClusterSizes, we.ClusterSizes)
	}
}

// TestRunAllocatesOnlyItsOutput bounds what one two-round Run allocates:
// the Evaluation it returns, one partition's traversal layout per engine
// worker (the coordinate copy, minSq and rows, with cell counts and boxes
// inside the per-point allowance) and 1 MiB for everything else. An index
// list over the input, a copy of every partition or a layout per reducer
// exceeds it.
func TestRunAllocatesOnlyItsOutput(t *testing.T) {
	const n, k, machines, dim = 200_000, 50, 10, 2
	ds := dataset.Gau(dataset.GauConfig{N: n, KPrime: 25, Seed: 43}).Points
	cfg := Config{K: k, Cluster: mapreduce.Config{Machines: machines}}
	if _, err := Run(ds, cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(ds, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("%d iterations, want the two-round case", res.Iterations)
	}
	partition := n / machines
	evaluation := 16*n + 8*k
	layout := partition * (8*dim + 16)
	workers := runtime.GOMAXPROCS(0)
	bound := uint64(evaluation + workers*layout + 1<<20)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("Run allocated %d bytes, over the %d of its Evaluation, %d workers' layouts of %d bytes and 1 MiB",
			got, evaluation, workers, layout)
	}
}
