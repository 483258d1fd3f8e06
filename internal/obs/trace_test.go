package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestStartTraceDisarmedIsNil(t *testing.T) {
	tr := StartTrace(RouteIngest, false)
	if tr != nil {
		t.Fatalf("StartTrace while disarmed returned %v", tr)
	}
	// Every method must be a nil-receiver no-op.
	tr.Mark(StageDecode)
	tr.Skip()
	tr.Finish(nil, "", time.Nanosecond)
}

func TestTraceStagesSumWithinTotal(t *testing.T) {
	m := NewTenantMetrics()
	tr := StartTrace(RouteAssign, true)
	time.Sleep(2 * time.Millisecond)
	tr.Mark(StageDecode)
	time.Sleep(time.Millisecond)
	tr.Skip() // unattributed gap
	time.Sleep(2 * time.Millisecond)
	tr.Mark(StageKernel)
	tr.Finish(m, "alpha", 0)

	rm := m.Route(RouteAssign)
	if rm.Total.Count() != 1 {
		t.Fatalf("total count = %d", rm.Total.Count())
	}
	total := rm.Total.Snapshot().SumNanos
	var stages int64
	for s := range rm.Stages {
		stages += rm.Stages[s].Snapshot().SumNanos
	}
	if stages > total {
		t.Fatalf("stage sum %d exceeds wall total %d", stages, total)
	}
	if rm.Stages[StageDecode].Count() != 1 || rm.Stages[StageKernel].Count() != 1 {
		t.Fatalf("marked stages not observed")
	}
	if rm.Stages[StageSnapshot].Count() != 0 {
		t.Fatalf("unmarked stage observed")
	}
	// The skipped gap must not be attributed to any stage.
	if stages >= total {
		t.Fatalf("skip gap was attributed: stages %d, total %d", stages, total)
	}
}

func TestTraceNilMetricsDiscards(t *testing.T) {
	tr := StartTrace(RouteIngest, true)
	tr.Mark(StageDecode)
	tr.Finish(nil, "", 0) // must not panic; measurements discarded
}

func TestSlowRequestLog(t *testing.T) {
	old := Default()
	defer SetDefault(old)

	var buf bytes.Buffer
	SetDefault(NewLogger(&buf, FormatJSON, LevelDebug))

	m := NewTenantMetrics()
	tr := StartTrace(RouteIngest, true)
	time.Sleep(time.Millisecond)
	tr.Mark(StageDecode)
	tr.Finish(m, "alpha", time.Nanosecond) // everything is slow

	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatalf("no slow-request line emitted")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow-request line not valid JSON: %v\n%s", err, line)
	}
	if rec["msg"] != "slow request" || rec["route"] != "ingest" || rec["tenant"] != "alpha" {
		t.Fatalf("unexpected slow-request fields: %s", line)
	}
	if _, ok := rec["decode"]; !ok {
		t.Fatalf("stage breakdown missing from slow-request line: %s", line)
	}

	// Below threshold: silent.
	buf.Reset()
	tr = StartTrace(RouteIngest, true)
	tr.Finish(m, "alpha", time.Hour)
	if buf.Len() != 0 {
		t.Fatalf("fast request logged as slow: %s", buf.String())
	}
}

// TestSlowThresholdClamp: a zero or negative threshold disables the log
// rather than marking every request slow.
func TestSlowThresholdClamp(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	var buf bytes.Buffer
	SetDefault(NewLogger(&buf, FormatJSON, LevelDebug))
	for _, thr := range []time.Duration{0, -time.Second} {
		tr := StartTrace(RouteIngest, true)
		time.Sleep(time.Millisecond)
		tr.Finish(nil, "alpha", thr)
	}
	if buf.Len() != 0 {
		t.Fatalf("non-positive threshold logged: %s", buf.String())
	}
}
