package mapreduce

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPartitionInvariants(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{0, 5}, {1, 1}, {1, 5}, {5, 1}, {10, 3}, {100, 7}, {50, 50}, {49, 50}, {51, 50},
	} {
		parts := Partition(tc.n, tc.m)
		seen := make([]bool, tc.n)
		total := 0
		maxAllowed := 0
		if tc.m > 0 {
			maxAllowed = (tc.n + tc.m - 1) / tc.m
		}
		for _, p := range parts {
			if len(p) == 0 {
				t.Fatalf("n=%d m=%d: empty part", tc.n, tc.m)
			}
			if len(p) > maxAllowed {
				t.Fatalf("n=%d m=%d: part size %d > ⌈n/m⌉ = %d", tc.n, tc.m, len(p), maxAllowed)
			}
			for _, idx := range p {
				if idx < 0 || idx >= tc.n || seen[idx] {
					t.Fatalf("n=%d m=%d: bad/duplicate index %d", tc.n, tc.m, idx)
				}
				seen[idx] = true
				total++
			}
		}
		if total != tc.n {
			t.Fatalf("n=%d m=%d: covered %d indices", tc.n, tc.m, total)
		}
		if len(parts) > tc.m {
			t.Fatalf("n=%d m=%d: %d parts", tc.n, tc.m, len(parts))
		}
	}
}

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

func TestPartitionQuick(t *testing.T) {
	f := func(nRaw, mRaw uint16) bool {
		n := int(nRaw%2000) + 1
		m := int(mRaw%100) + 1
		parts := Partition(n, m)
		seen := make([]bool, n)
		count := 0
		limit := (n + m - 1) / m
		for _, p := range parts {
			if len(p) > limit {
				return false
			}
			for _, idx := range p {
				if idx < 0 || idx >= n || seen[idx] {
					return false
				}
				seen[idx] = true
				count++
			}
		}
		return count == n && len(parts) <= m
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
