package mapreduce

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestPartitionBounds pins the split both MRG's row ranges and EIM's
// record ranges follow: contiguous ranges in order, the first n mod m of
// them one longer, and nil for an empty input or no machines.
func TestPartitionBounds(t *testing.T) {
	if PartitionBounds(0, 5) != nil || PartitionBounds(5, 0) != nil {
		t.Fatal("PartitionBounds of an empty input or no machines is not nil")
	}
	for _, tc := range []struct {
		n, m int
		want []int
	}{
		{1, 1, []int{0, 1}},
		{3, 5, []int{0, 1, 2, 3}},
		{10, 3, []int{0, 4, 7, 10}},
		{100, 7, []int{0, 15, 30, 44, 58, 72, 86, 100}},
	} {
		got := PartitionBounds(tc.n, tc.m)
		if len(got) != len(tc.want) {
			t.Fatalf("n=%d m=%d: bounds %v, want %v", tc.n, tc.m, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("n=%d m=%d: bounds %v, want %v", tc.n, tc.m, got, tc.want)
			}
		}
	}
}

// partitionOK reports whether PartitionBounds(n, m) keeps Algorithm 1's
// mapper contract: at most m parts, each non-empty and of at most ⌈n/m⌉
// indices, covering [0, n) exactly once.
func partitionOK(n, m int) bool {
	bounds := PartitionBounds(n, m)
	if n <= 0 || m <= 0 {
		return bounds == nil
	}
	parts := len(bounds) - 1
	if parts < 1 || parts > m || bounds[0] != 0 || bounds[parts] != n {
		return false
	}
	limit := (n + m - 1) / m
	for i := 0; i < parts; i++ {
		if size := bounds[i+1] - bounds[i]; size < 1 || size > limit {
			return false
		}
	}
	return true
}

func TestPartitionInvariants(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{0, 5}, {1, 1}, {1, 5}, {5, 1}, {10, 3}, {100, 7}, {50, 50}, {49, 50}, {51, 50},
	} {
		if !partitionOK(tc.n, tc.m) {
			t.Fatalf("n=%d m=%d: bounds %v break the mapper contract", tc.n, tc.m, PartitionBounds(tc.n, tc.m))
		}
	}
}

func TestPartitionQuick(t *testing.T) {
	f := func(nRaw, mRaw uint16) bool {
		return partitionOK(int(nRaw%2000)+1, int(mRaw%100)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRunsAllTasks(t *testing.T) {
	e, err := NewEngine(Config{Machines: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ran int64
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = func(ops *OpCounter) error {
			atomic.AddInt64(&ran, 1)
			ops.Add(5)
			return nil
		}
	}
	rs, err := e.Run("round1", tasks)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 10 {
		t.Fatalf("ran %d tasks", ran)
	}
	if rs.Tasks != 10 || rs.MaxOps != 5 || rs.SumOps != 50 {
		t.Fatalf("stats %+v", rs)
	}
}

func TestEngineRoundCostIsMax(t *testing.T) {
	e, _ := NewEngine(Config{})
	tasks := []Task{
		func(ops *OpCounter) error { ops.Add(10); return nil },
		func(ops *OpCounter) error { ops.Add(100); return nil },
		func(ops *OpCounter) error { ops.Add(1); return nil },
	}
	rs, err := e.Run("r", tasks)
	if err != nil {
		t.Fatal(err)
	}
	if rs.MaxOps != 100 || rs.SumOps != 111 {
		t.Fatalf("stats %+v", rs)
	}
}

func TestJobStatsAccumulate(t *testing.T) {
	e, _ := NewEngine(Config{})
	mk := func(ops int64) []Task {
		return []Task{func(o *OpCounter) error { o.Add(ops); return nil }}
	}
	if _, err := e.Run("a", mk(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run("b", mk(20)); err != nil {
		t.Fatal(err)
	}
	js := e.Stats()
	if js.NumRounds() != 2 {
		t.Fatalf("rounds %d", js.NumRounds())
	}
	if js.SimulatedOps() != 30 || js.TotalOps() != 30 {
		t.Fatalf("ops %d / %d", js.SimulatedOps(), js.TotalOps())
	}
	if js.SimulatedWall() <= 0 {
		t.Fatal("wall stats missing")
	}
}

func TestEnginePropagatesErrors(t *testing.T) {
	e, _ := NewEngine(Config{})
	sentinel := errors.New("boom")
	tasks := []Task{
		func(ops *OpCounter) error { return nil },
		func(ops *OpCounter) error { return sentinel },
	}
	_, err := e.Run("r", tasks)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	// The round must still be recorded for diagnostics.
	if e.Stats().NumRounds() != 1 {
		t.Fatal("failed round not recorded")
	}
}

func TestEngineRecoversPanics(t *testing.T) {
	e, _ := NewEngine(Config{})
	tasks := []Task{func(ops *OpCounter) error { panic("reducer exploded") }}
	_, err := e.Run("r", tasks)
	if err == nil {
		t.Fatal("expected error from panicking reducer")
	}
	if want := "reducer exploded"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention panic value", err)
	}
}

func TestEngineWorkerBound(t *testing.T) {
	e, _ := NewEngine(Config{Workers: 2})
	var inFlight, maxInFlight int64
	tasks := make([]Task, 16)
	for i := range tasks {
		tasks[i] = func(ops *OpCounter) error {
			cur := atomic.AddInt64(&inFlight, 1)
			for {
				prev := atomic.LoadInt64(&maxInFlight)
				if cur <= prev || atomic.CompareAndSwapInt64(&maxInFlight, prev, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&inFlight, -1)
			return nil
		}
	}
	if _, err := e.Run("r", tasks); err != nil {
		t.Fatal(err)
	}
	if maxInFlight > 2 {
		t.Fatalf("observed %d concurrent reducers, want <= 2", maxInFlight)
	}
}

func TestCheckCapacity(t *testing.T) {
	e, _ := NewEngine(Config{Capacity: 100})
	if err := e.CheckCapacity(100); err != nil {
		t.Fatalf("100 points should fit capacity 100: %v", err)
	}
	if err := e.CheckCapacity(101); err == nil {
		t.Fatal("101 points should exceed capacity 100")
	}
	unbounded, _ := NewEngine(Config{})
	if err := unbounded.CheckCapacity(1 << 30); err != nil {
		t.Fatalf("unbounded engine rejected: %v", err)
	}
}

func TestEmptyRound(t *testing.T) {
	e, _ := NewEngine(Config{})
	rs, err := e.Run("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Tasks != 0 || rs.MaxOps != 0 {
		t.Fatalf("stats %+v", rs)
	}
	if e.Stats().NumRounds() != 1 {
		t.Fatal("empty round should still count")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Machines: -1}).Validate(); err == nil {
		t.Fatal("negative machines should fail validation")
	}
	if _, err := NewEngine(Config{Capacity: -5}); err == nil {
		t.Fatal("NewEngine should reject invalid config")
	}
}

func TestConfigDefaults(t *testing.T) {
	e, _ := NewEngine(Config{})
	cfg := e.Config()
	if cfg.Machines != 50 {
		t.Fatalf("default machines = %d, want the paper's 50", cfg.Machines)
	}
	if cfg.Workers <= 0 {
		t.Fatal("workers not defaulted")
	}
}
