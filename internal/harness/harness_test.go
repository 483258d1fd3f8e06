package harness

import (
	"bytes"
	"strings"
	"testing"

	"kcenter/internal/dataset"
)

func TestRunOneGON(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 5000, Seed: 1})
	m, err := RunOne(l.Points, RunSpec{Algo: GON, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Value <= 0 || m.Seconds <= 0 {
		t.Fatalf("%+v", m)
	}
	if m.SimOps != int64(10*5000) {
		t.Fatalf("GON ops %d, want k·n", m.SimOps)
	}
	if m.Rounds != 0 {
		t.Fatalf("GON rounds %d, want 0", m.Rounds)
	}
}

func TestRunOneMRG(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 5000, Seed: 2})
	m, err := RunOne(l.Points, RunSpec{Algo: MRG, K: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 2 {
		t.Fatalf("MRG rounds %d, want 2", m.Rounds)
	}
	if m.Value <= 0 {
		t.Fatalf("value %v", m.Value)
	}
}

func TestRunOneEIM(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 30000, Seed: 4})
	m, err := RunOne(l.Points, RunSpec{Algo: EIM, K: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds < 4 {
		t.Fatalf("EIM rounds %d, want >= 4 (one iteration + final)", m.Rounds)
	}
}

func TestRunOneUnknownAlgo(t *testing.T) {
	l := dataset.Unif(dataset.UnifConfig{N: 1000, Seed: 6})
	if _, err := RunOne(l.Points, RunSpec{Algo: "NOPE", K: 1}); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestAggregate(t *testing.T) {
	ms := []Measurement{
		{Value: 1, Seconds: 2, SimOps: 10, Rounds: 2, Iterations: 1},
		{Value: 3, Seconds: 4, SimOps: 30, Rounds: 2, Iterations: 1, FellBack: true},
	}
	agg := Aggregate(ms)
	if agg.Value != 2 || agg.Seconds != 3 || agg.SimOps != 20 {
		t.Fatalf("%+v", agg)
	}
	if agg.Rounds != 2 || agg.Iterations != 1 || !agg.FellBack {
		t.Fatalf("%+v", agg)
	}
	if z := Aggregate(nil); z.Value != 0 {
		t.Fatalf("empty aggregate %+v", z)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("degenerate stats wrong")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"chaos", "fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b",
		"restart", "scaling", "serve", "serve-obs", "serve-replicate", "serve-tenants",
		"stream", "table1", "table2", "table3", "table4", "table5", "table6", "table7"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for _, id := range want {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete: %+v", id, e)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID should fail for unknown id")
	}
	// All() must be sorted.
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("All() not sorted: %s before %s", all[i-1].ID, all[i].ID)
		}
	}
}

func TestTable1Runs(t *testing.T) {
	e, _ := ByID("table1")
	var buf bytes.Buffer
	if err := e.Run(RunConfig{}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"GON", "MRG", "EIM", "Inequality (1)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
}

// TestExperimentsSmoke runs every experiment at a tiny scale: the point is
// that each one completes and emits a row per k/n, not the values.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments smoke test is slow")
	}
	cfg := RunConfig{Scale: 200, Repeats: 1, Seed: 1}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := e.Run(cfg, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			lines := strings.Count(buf.String(), "\n")
			if lines < 3 {
				t.Fatalf("%s produced only %d lines:\n%s", e.ID, lines, buf.String())
			}
		})
	}
}

// TestRuntimeTablesPrintOps checks that a runtime table labels and prints
// each algorithm's SimOps beside its seconds: GON's column is the paper's
// k·n charge.
func TestRuntimeTablesPrintOps(t *testing.T) {
	e, _ := ByID("fig2b")
	var buf bytes.Buffer
	if err := e.Run(RunConfig{Scale: 200, Repeats: 1, Seed: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	var header []string
	rows := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == "k":
			header = f
		case header != nil && len(f) >= 7:
			if got := strings.Join(header, " "); got != "k MRG s MRG ops EIM s EIM ops GON s GON ops" {
				t.Fatalf("header %q does not label each algorithm's seconds and ops", got)
			}
			if want := f[0] + "000"; f[6] != want { // n = 1,000
				t.Fatalf("k=%s: GON ops %s, want k·n = %s:\n%s", f[0], f[6], want, buf.String())
			}
			rows++
		}
	}
	if rows != len(paperKs) {
		t.Fatalf("%d runtime rows, want %d:\n%s", rows, len(paperKs), buf.String())
	}
}

func TestScaledClampsSmallN(t *testing.T) {
	cfg := RunConfig{Scale: 1000000}.withDefaults()
	if n := cfg.scaled(100000); n != 1000 {
		t.Fatalf("scaled n = %d, want clamp to 1000", n)
	}
	cfg = RunConfig{Scale: 10}.withDefaults()
	if n := cfg.scaled(100000); n != 10000 {
		t.Fatalf("scaled n = %d, want 10000", n)
	}
}
