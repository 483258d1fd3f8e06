// Package mrg implements MRG ("MapReduce Gonzalez"), the paper's multi-round
// parallel k-center algorithm (Algorithm 1).
//
// One parallel iteration partitions the current point set S arbitrarily
// among reducers (each |Vi| ≤ ⌈|S|/m⌉), runs GON on every partition in
// parallel, and replaces S with the union of the returned center sets. The
// loop repeats while S exceeds the capacity c of a single machine; a final
// round runs GON on S on one machine.
//
// Algorithm 1 allows any partition and any first center. This package
// makes one fixed choice: contiguous ranges of S in order, with each GON
// starting from the first point of its input, so a run is a deterministic
// function of the dataset and its row order. A caller wanting a different
// partition permutes the rows (metric.Dataset.Subset with a permutation);
// the guarantees below hold for every order.
//
// Guarantees (paper §3.2–3.3):
//   - With n/m ≤ c and k·m ≤ c the loop runs once — two MapReduce rounds
//     total — and the result is a 4-approximation (Lemma 2).
//   - With i loop iterations the result is a 2(i+1)-approximation (Lemma 3);
//     the machine count follows the recurrence of Inequality (1) and
//     convergence requires k sufficiently below c (intuitively 2k < c).
//
// Runtime (paper §5.1): O(k·n/m) for the first round plus O(k²·m) for the
// final round. Every reducer runs core.GonzalezRange on a contiguous row
// range of one Dataset, read in place: the input itself in the first
// iteration, and the gathered sample ds.Subset(S) in any later one and in
// the final round after one, whose centers map back through S. The
// traversal scans its rows with the dimension-specialized kernels of
// internal/metric or, at k ≥ 20 on large low-dimensional partitions,
// sorts them into the blocked layout that skips the blocks a new center
// cannot improve. That layout lives in a core.Scratch: one Run keeps one
// per engine worker and every reducer borrows one, so a round of m
// reducers allocates no per-reducer copy. Either way a reducer is charged
// its full k·|Vi| evaluations and returns the same centers. The final
// full-dataset evaluation is assign.Evaluate, uncharged like every
// solution evaluation; at the paper's dim 2 and k ≥ 16 it runs the grid
// filter, which scans each point against the few centers its grid cell's
// box may be nearest to.
package mrg

import (
	"fmt"

	"kcenter/internal/assign"
	"kcenter/internal/core"
	"kcenter/internal/mapreduce"
	"kcenter/internal/metric"
)

// maxRounds caps the number of while-loop iterations as a safety net
// against configurations where |S| cannot shrink below c (paper §3.3:
// requires roughly 2k < c); such runs fail with a diagnostic instead.
const maxRounds = 64

// Config parameterizes a run of MRG.
type Config struct {
	// K is the number of centers to return.
	K int
	// Cluster describes the simulated MapReduce cluster. When
	// Cluster.Capacity is zero, the capacity defaults to
	// max(⌈n/m⌉, k·m) — the minimum capacity for which Lemma 2's two-round
	// case applies — so the default run is the paper's 2-round MRG.
	Cluster mapreduce.Config
}

// Result is the outcome of an MRG run.
type Result struct {
	// Centers holds the k final center indices into the input dataset.
	Centers []int
	// Radius is the covering radius over the full dataset.
	Radius float64
	// Iterations is the number of while-loop iterations executed (each is
	// one parallel MapReduce round); the paper's 2-round case has
	// Iterations == 1.
	Iterations int
	// MapReduceRounds is Iterations plus the final single-machine round.
	MapReduceRounds int
	// ApproxFactor is the guarantee for the executed round count:
	// 2·(Iterations+1).
	ApproxFactor float64
	// SampleSizes records |S| after each while-loop iteration.
	SampleSizes []int
	// Stats exposes the per-round simulated cost (max-over-machines wall
	// time and distance evaluations).
	Stats *mapreduce.JobStats
	// Evaluation is the full assignment of the dataset to Centers.
	Evaluation *assign.Evaluation
}

// Run executes MRG over ds.
func Run(ds *metric.Dataset, cfg Config) (*Result, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("mrg: k must be >= 1, got %d", cfg.K)
	}
	if ds == nil || ds.N == 0 {
		return nil, fmt.Errorf("mrg: empty dataset")
	}
	n := ds.N
	cluster := cfg.Cluster
	if cluster.Machines <= 0 {
		cluster.Machines = 50
	}
	m := cluster.Machines
	if cluster.Capacity == 0 {
		// Default to the smallest capacity satisfying Lemma 2's two-round
		// requirements n/m <= c and k*m <= c.
		perMachine := (n + m - 1) / m
		c := cfg.K * m
		if perMachine > c {
			c = perMachine
		}
		cluster.Capacity = c
	}
	if cluster.Capacity*m < n {
		return nil, fmt.Errorf("mrg: aggregate capacity m·c = %d·%d cannot hold n = %d points",
			m, cluster.Capacity, n)
	}
	if cfg.K > cluster.Capacity {
		// Selecting k centers on one machine requires k <= c (paper §3.3).
		return nil, fmt.Errorf("mrg: k = %d exceeds single-machine capacity c = %d", cfg.K, cluster.Capacity)
	}
	engine, err := mapreduce.NewEngine(cluster)
	if err != nil {
		return nil, err
	}

	res := &Result{Stats: engine.Stats()}

	// S starts as the whole vertex set (Algorithm 1, line 1). cur holds the
	// points of S in S's order and rows maps its rows to dataset rows, nil
	// while S is the input itself, so every reducer of every round reads a
	// contiguous row range of cur in place.
	cur := ds
	var rows []int
	// Each reducer borrows a traversal scratch from free and gives it back,
	// so the engine's workers, which run one reducer at a time each, share
	// one scratch apiece across all reducers and rounds of this run.
	workers := engine.Config().Workers
	free := make(chan *core.Scratch, workers)
	for w := 0; w < workers; w++ {
		free <- new(core.Scratch)
	}
	// reduce runs GON on rows [lo, hi) of cur and returns its centers as
	// dataset rows. A round's reducers all run before cur moves on.
	reduce := func(lo, hi int, ops *mapreduce.OpCounter) []int {
		sc := <-free
		defer func() { free <- sc }()
		g := core.GonzalezRange(cur, lo, hi, cfg.K, core.Options{First: 0}, sc)
		ops.Add(g.DistEvals)
		if rows != nil {
			for i, row := range g.Centers {
				g.Centers[i] = rows[row]
			}
		}
		return g.Centers
	}

	c := cluster.Capacity
	for cur.N > c {
		if res.Iterations >= maxRounds {
			return nil, fmt.Errorf("mrg: sample still has %d > c = %d points after %d iterations; "+
				"k·m must shrink below c for MRG to terminate (need roughly 2k < c)",
				cur.N, c, res.Iterations)
		}
		// Machine count for this iteration: the first iteration uses all m
		// machines (the data already lives there); later iterations need
		// only ⌈|S|/c⌉ machines (paper §3.3).
		mi := m
		if res.Iterations > 0 {
			mi = (cur.N + c - 1) / c
			if mi > m {
				mi = m
			}
		}
		bounds := mapreduce.PartitionBounds(cur.N, mi)
		parts := len(bounds) - 1
		for i := 0; i < parts; i++ {
			// Every partition must fit on its reducer.
			if err := engine.CheckCapacity(bounds[i+1] - bounds[i]); err != nil {
				return nil, fmt.Errorf("mrg: partition of %d points: %w", bounds[i+1]-bounds[i], err)
			}
		}

		// Parallel round: each reducer runs GON on its partition and emits k
		// centers (Algorithm 1, line 4).
		centerSets := make([][]int, parts)
		tasks := make([]mapreduce.Task, parts)
		for i := range tasks {
			i := i
			tasks[i] = func(ops *mapreduce.OpCounter) error {
				centerSets[i] = reduce(bounds[i], bounds[i+1], ops)
				return nil
			}
		}
		roundName := fmt.Sprintf("mrg-parallel-%d", res.Iterations+1)
		if _, err := engine.Run(roundName, tasks); err != nil {
			return nil, err
		}
		next := make([]int, 0, parts*cfg.K)
		for _, cs := range centerSets {
			next = append(next, cs...)
		}
		if len(next) >= cur.N {
			return nil, fmt.Errorf("mrg: iteration %d did not shrink the sample (%d -> %d); "+
				"increase capacity or reduce k", res.Iterations+1, cur.N, len(next))
		}
		cur, rows = ds.Subset(next), next
		res.Iterations++
		res.SampleSizes = append(res.SampleSizes, cur.N)
	}

	// Final round: one machine runs GON on S (Algorithm 1, lines 6–7).
	if err := engine.CheckCapacity(cur.N); err != nil {
		return nil, err
	}
	var final []int
	task := func(ops *mapreduce.OpCounter) error {
		final = reduce(0, cur.N, ops)
		return nil
	}
	if _, err := engine.Run("mrg-final", []mapreduce.Task{task}); err != nil {
		return nil, err
	}

	res.Centers = final
	res.MapReduceRounds = res.Iterations + 1
	res.ApproxFactor = 2 * float64(res.Iterations+1)
	res.Evaluation = assign.Evaluate(ds, final, 0)
	res.Radius = res.Evaluation.Radius
	return res, nil
}

// PredictMachines evaluates the machine-count recurrence of Inequality (1):
// the number of machines needed after i while-loop iterations given n, k, m
// and c. It mirrors the analysis in §3.3 and backs the Table 1 bench.
func PredictMachines(n, k, m, c, i int) float64 {
	if c <= 0 {
		return 0
	}
	ratio := float64(k) / float64(c)
	mi := float64(m)
	for r := 0; r < i; r++ {
		mi = mi*ratio + 1 // m_{r+1} = ceil(k·m_r / c) <= m_r·k/c + 1
	}
	return mi
}
