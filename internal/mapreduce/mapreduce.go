// Package mapreduce implements the simulated MapReduce substrate on which the
// paper's parallel k-center algorithms (MRG and EIM) execute.
//
// The paper's methodology (§7.1) is followed exactly:
//
//   - Parallel machines are simulated on one host. The processing time of a
//     MapReduce round is the LONGEST processing time among the simulated
//     machines in that round (the parallel critical path), and the job cost
//     is the sum over rounds.
//   - The cost of moving data between machines is NOT recorded.
//   - The number of simulated machines m is a parameter (the paper fixes 50).
//
// Beyond the paper, each simulated machine also counts the distance
// evaluations its work is charged under the paper's cost model. That is the
// algorithm's stated charge, not necessarily the evaluations the host
// executes: EIM's reducers charge a brute-force scan of the new sample but
// prune most of it (see package eim). Operation counts are deterministic,
// unlike wall clock, so experiments and tests can assert on them; wall-clock
// statistics are collected as well and drive the runtime tables.
//
// Reducers run concurrently on a bounded goroutine pool for real-time speed;
// concurrency is an execution detail and does not affect the simulated cost
// model. A panicking reducer is recovered and surfaced as an error rather
// than taking down the host process.
package mapreduce

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Config describes the simulated cluster.
type Config struct {
	// Machines is m, the number of simulated machines per round. The paper
	// fixes m = 50 in all experiments.
	Machines int
	// Capacity is c, the per-machine memory capacity in points. Zero means
	// unbounded (capacity checks disabled). MRG's round structure depends on
	// n/m ≤ c and k·m vs c (paper §3.2–3.3).
	Capacity int
	// Workers bounds the number of reducers executing concurrently on the
	// host; 0 means GOMAXPROCS. It has no effect on simulated cost.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 50
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Machines < 0 || c.Capacity < 0 || c.Workers < 0 {
		return fmt.Errorf("mapreduce: negative config field: %+v", c)
	}
	return nil
}

// OpCounter accumulates the deterministic work performed by one simulated
// machine within one round. Algorithms call Add with the number of distance
// evaluations (or comparable unit operations) they perform. OpCounter is not
// safe for concurrent use; each task owns its own.
type OpCounter struct{ n int64 }

// Add records n unit operations.
func (o *OpCounter) Add(n int64) { o.n += n }

// Total returns the operations recorded so far.
func (o *OpCounter) Total() int64 { return o.n }

// Task is the work assigned to one simulated machine (reducer) in a round.
// The engine passes a fresh OpCounter; the task reports its deterministic
// work through it.
type Task func(ops *OpCounter) error

// RoundStats records the cost of one MapReduce round.
type RoundStats struct {
	Name  string
	Tasks int
	// MaxWall is the simulated round duration: the longest wall time among
	// the machines (paper §7.1).
	MaxWall time.Duration
	// SumWall is total compute across machines (for utilization analysis).
	SumWall time.Duration
	// MaxOps is the deterministic analogue of MaxWall.
	MaxOps int64
	// SumOps is the deterministic analogue of SumWall.
	SumOps int64
}

// JobStats aggregates rounds.
type JobStats struct {
	Rounds []RoundStats
}

// NumRounds returns the number of MapReduce rounds executed.
func (j *JobStats) NumRounds() int { return len(j.Rounds) }

// SimulatedWall returns the simulated parallel makespan: Σ_rounds max_machine.
func (j *JobStats) SimulatedWall() time.Duration {
	var total time.Duration
	for _, r := range j.Rounds {
		total += r.MaxWall
	}
	return total
}

// SimulatedOps returns the deterministic simulated cost: Σ_rounds max_machine ops.
func (j *JobStats) SimulatedOps() int64 {
	var total int64
	for _, r := range j.Rounds {
		total += r.MaxOps
	}
	return total
}

// TotalOps returns the total work across all machines and rounds.
func (j *JobStats) TotalOps() int64 {
	var total int64
	for _, r := range j.Rounds {
		total += r.SumOps
	}
	return total
}

// Engine executes rounds of tasks against a simulated cluster and records
// per-round statistics. An Engine is safe for use by a single job at a time;
// create one Engine per job.
type Engine struct {
	cfg   Config
	stats JobStats
}

// NewEngine returns an engine for the given cluster configuration.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg.withDefaults()}, nil
}

// Config returns the effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns the statistics accumulated so far. The returned pointer
// remains owned by the engine; callers must not mutate it concurrently with
// Run.
func (e *Engine) Stats() *JobStats { return &e.stats }

// CheckCapacity returns an error when points exceeds the per-machine
// capacity c (when a capacity is configured). Algorithms call it before
// assigning a point set to a single simulated machine.
func (e *Engine) CheckCapacity(points int) error {
	if e.cfg.Capacity > 0 && points > e.cfg.Capacity {
		return fmt.Errorf("mapreduce: %d points exceed machine capacity %d", points, e.cfg.Capacity)
	}
	return nil
}

// Run executes one MapReduce round: every task is one simulated machine.
// Tasks run concurrently, bounded by cfg.Workers; the round's simulated cost
// is the per-machine maximum. Run returns the first task error (panics are
// converted to errors); statistics are recorded even for partially failed
// rounds so diagnostics can see them.
func (e *Engine) Run(name string, tasks []Task) (RoundStats, error) {
	if len(tasks) == 0 {
		rs := RoundStats{Name: name}
		e.stats.Rounds = append(e.stats.Rounds, rs)
		return rs, nil
	}
	type result struct {
		wall time.Duration
		ops  int64
		err  error
	}
	results := make([]result, len(tasks))
	// One goroutine per concurrency slot pulling task indices, not one per
	// task parked behind a semaphore: a round with m = 50 simulated
	// machines on w workers spawns w goroutines instead of m, and MRG runs
	// several rounds per job. Simulated cost is unaffected (each task is
	// still timed individually); only host-side scheduler traffic shrinks.
	workers := e.cfg.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				var ops OpCounter
				start := time.Now()
				err := runRecovered(tasks[i], &ops)
				results[i] = result{wall: time.Since(start), ops: ops.Total(), err: err}
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()

	rs := RoundStats{Name: name, Tasks: len(tasks)}
	var firstErr error
	for _, r := range results {
		if r.wall > rs.MaxWall {
			rs.MaxWall = r.wall
		}
		rs.SumWall += r.wall
		if r.ops > rs.MaxOps {
			rs.MaxOps = r.ops
		}
		rs.SumOps += r.ops
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	e.stats.Rounds = append(e.stats.Rounds, rs)
	if firstErr != nil {
		return rs, fmt.Errorf("mapreduce: round %q: %w", name, firstErr)
	}
	return rs, nil
}

func runRecovered(task Task, ops *OpCounter) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("reducer panicked: %v", r)
		}
	}()
	return task(ops)
}

// Partition splits the indices [0, n) into at most m non-empty parts of size
// at most ⌈n/m⌉, matching Algorithm 1's mapper contract ("arbitrarily
// partitions V into sets V1…Vm with |Vi| ≤ ⌈n/m⌉"). The parts are contiguous
// ranges, the cheapest "arbitrary" choice and the one that preserves
// streaming locality. When n < m only n singleton parts are returned.
func Partition(n, m int) [][]int {
	if n <= 0 || m <= 0 {
		return nil
	}
	if m > n {
		m = n
	}
	parts := make([][]int, 0, m)
	base := n / m
	rem := n % m
	start := 0
	for i := 0; i < m; i++ {
		size := base
		if i < rem {
			size++
		}
		if size == 0 {
			continue
		}
		part := make([]int, size)
		for j := range part {
			part[j] = start + j
		}
		parts = append(parts, part)
		start += size
	}
	return parts
}
