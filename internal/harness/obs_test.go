package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunObsOverhead smoke-runs the armed-vs-disarmed pair at test size and
// checks both runs measured real traffic.
func TestRunObsOverhead(t *testing.T) {
	m, err := RunObsOverhead(ServeSpec{K: 8, Shards: 2, Clients: 2, Batch: 200}, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if m.Disarmed.Ingested != 3000 || m.Armed.Ingested != 3000 {
		t.Fatalf("runs incomplete: disarmed %d armed %d points", m.Disarmed.Ingested, m.Armed.Ingested)
	}
	if m.Disarmed.IngestP50 <= 0 || m.Armed.IngestP50 <= 0 {
		t.Fatalf("latencies not measured: %+v", m)
	}
}

func TestServeObsExperimentRegistered(t *testing.T) {
	e, ok := ByID("serve-obs")
	if !ok {
		t.Fatal("serve-obs experiment not registered")
	}
	var buf bytes.Buffer
	if err := e.Run(RunConfig{Scale: 200, Repeats: 1, Seed: 5}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"telemetry", "ingest-p50", "overhead delta", "PASS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("experiment output missing %q:\n%s", want, out)
		}
	}
}
