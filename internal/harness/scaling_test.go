package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestScalingReportShape runs the scaling experiment at a small scale and
// checks the table's structure: the NumCPU/GOMAXPROCS header, one ingest
// row per swept shard count, and a 1.00x speedup on the baseline row.
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
	if got := strings.Count(out, "ingest"); got != 3 {
		t.Fatalf("scaling output has %d ingest rows, want 3:\n%s", got, out)
	}
	// The first row is the sweep's own baseline.
	if got := strings.Count(out, "1.00x"); got < 1 {
		t.Fatalf("scaling output has no baseline 1.00x row:\n%s", out)
	}
}
