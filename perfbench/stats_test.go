package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Unsorted input, even count: the median is the lower middle sample.
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

const scrapeBefore = `# HELP kcenter_stage_duration_seconds Stage latency.
# TYPE kcenter_stage_duration_seconds histogram
kcenter_stage_duration_seconds_bucket{route="assign",stage="kernel",le="0.001"} 1
kcenter_stage_duration_seconds_bucket{route="assign",stage="kernel",le="0.002"} 2
kcenter_stage_duration_seconds_bucket{route="assign",stage="kernel",le="0.004"} 2
kcenter_stage_duration_seconds_bucket{route="assign",stage="kernel",le="+Inf"} 2
kcenter_stage_duration_seconds_sum{route="assign",stage="kernel"} 0.002
kcenter_stage_duration_seconds_count{route="assign",stage="kernel"} 2
kcenter_up 1
`

const scrapeAfter = `# HELP kcenter_stage_duration_seconds Stage latency.
# TYPE kcenter_stage_duration_seconds histogram
kcenter_stage_duration_seconds_bucket{route="assign",stage="kernel",le="0.001"} 2
kcenter_stage_duration_seconds_bucket{route="assign",stage="kernel",le="0.002"} 6
kcenter_stage_duration_seconds_bucket{route="assign",stage="kernel",le="0.004"} 8
kcenter_stage_duration_seconds_bucket{route="assign",stage="kernel",le="+Inf"} 8
kcenter_stage_duration_seconds_sum{route="assign",stage="kernel"} 0.012
kcenter_stage_duration_seconds_count{route="assign",stage="kernel"} 8
kcenter_stage_duration_seconds_bucket{route="ingest",stage="push",le="0.001"} 3
kcenter_stage_duration_seconds_bucket{route="ingest",stage="push",le="+Inf"} 4
kcenter_stage_duration_seconds_sum{route="ingest",stage="push"} 0.005
kcenter_stage_duration_seconds_count{route="ingest",stage="push"} 4
kcenter_tenants{status="active"} 1
`

func TestPromHistogramDiffAndQuantile(t *testing.T) {
	before, err := parseProm(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(scrapeAfter)
	if err != nil {
		t.Fatal(err)
	}
	const kernel = `kcenter_stage_duration_seconds{route="assign",stage="kernel"}`
	d := diffHist(after.hists[kernel], before.hists[kernel])
	if d.count != 6 || math.Abs(d.sum-0.010) > 1e-12 {
		t.Fatalf("diff count %v sum %v, want 6 and 0.010", d.count, d.sum)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if !near(d.mean(), 0.010/6) {
		t.Errorf("mean %v, want %v", d.mean(), 0.010/6)
	}
	// Cumulative diff is 1, 4, 6, 6: the median (rank 3) falls 2/3 of the
	// way through (0.001, 0.002]; p99 (rank 5.94) 97% through (0.002, 0.004].
	if got := d.quantile(0.5); !near(got, 0.001+0.001*2/3) {
		t.Errorf("p50 %v", got)
	}
	if got := d.quantile(0.99); !near(got, 0.002+0.002*0.97) {
		t.Errorf("p99 %v", got)
	}
	// A series absent from the earlier scrape counts from zero; a rank in
	// the +Inf bucket clamps to the last finite bound.
	const push = `kcenter_stage_duration_seconds{route="ingest",stage="push"}`
	p := diffHist(after.hists[push], before.hists[push])
	if p.count != 4 || p.quantile(0.9) != 0.001 {
		t.Errorf("push count %v p90 %v, want 4 and 0.001", p.count, p.quantile(0.9))
	}
	if len(after.hists) != 2 {
		t.Errorf("%d histograms parsed, want 2 (plain samples are not histograms)", len(after.hists))
	}
	if (*promHist)(nil).quantile(0.5) != 0 || (*promHist)(nil).mean() != 0 {
		t.Error("missing histogram should read as zero")
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics (with units) this program reports.
func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != 3 || names[0] != "batch" || names[1] != assignWorkload.name || names[2] != mixedWorkload.name {
		t.Errorf("workloads %v, want [batch assign mixed]", names)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
