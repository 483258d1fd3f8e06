package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestScalingReportShape runs the scaling experiment at a small scale and
// checks the table's structure: the NumCPU/GOMAXPROCS header, one row per
// swept count for each sweep, and a 1.00x speedup on each baseline row.
func TestScalingReportShape(t *testing.T) {
	e, ok := ByID("scaling")
	if !ok {
		t.Fatal("scaling experiment not registered")
	}
	var buf bytes.Buffer
	if err := e.Run(RunConfig{Scale: 20, Repeats: 1, Seed: 3}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"NumCPU=", "GOMAXPROCS=", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scaling output missing %q:\n%s", want, out)
		}
	}
	for _, sweep := range []string{"gonzalez", "ingest"} {
		if got := strings.Count(out, sweep); got != 3 {
			t.Fatalf("scaling output has %d %q rows, want 3:\n%s", got, sweep, out)
		}
	}
	// The first row of each sweep is its own baseline.
	if got := strings.Count(out, "1.00x"); got < 2 {
		t.Fatalf("scaling output has %d baseline 1.00x rows, want >= 2:\n%s", got, out)
	}
}
