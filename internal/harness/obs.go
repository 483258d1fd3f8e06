// Telemetry overhead experiment: the same mixed serving workload run twice —
// telemetry disarmed, then armed — so the cost of the telemetry
// layer (request traces, stage histograms, shard dwell stamps) is measured
// as a self-relative delta on this machine, not against numbers recorded on
// different hardware.

package harness

import (
	"fmt"
	"io"
)

// ObsOverheadMeasurement is the outcome of one armed-vs-disarmed pair.
type ObsOverheadMeasurement struct {
	// Disarmed / Armed are the two runs' serving measurements.
	Disarmed, Armed ServeMeasurement
	// IngestDeltaP50Ms / AssignDeltaP50Ms are armed minus disarmed medians
	// (negative = armed measured faster, i.e. the delta drowned in noise).
	IngestDeltaP50Ms, AssignDeltaP50Ms float64
}

// RunObsOverhead runs the identical workload disarmed then armed and
// reports both. Telemetry is per Service (ServeSpec.Telemetry), so the two
// runs' Services — and any other in the process — never share a switch.
func RunObsOverhead(spec ServeSpec, n int, seed uint64) (ObsOverheadMeasurement, error) {
	ds := genGau(25)(n, seed)

	spec.Telemetry = false
	disarmed, err := RunServe(ds, spec)
	if err != nil {
		return ObsOverheadMeasurement{}, fmt.Errorf("disarmed run: %w", err)
	}

	spec.Telemetry = true
	armed, err := RunServe(ds, spec)
	if err != nil {
		return ObsOverheadMeasurement{}, fmt.Errorf("armed run: %w", err)
	}

	return ObsOverheadMeasurement{
		Disarmed:         disarmed,
		Armed:            armed,
		IngestDeltaP50Ms: armed.IngestP50 - disarmed.IngestP50,
		AssignDeltaP50Ms: armed.AssignP50 - disarmed.AssignP50,
	}, nil
}

func init() {
	registry = append(registry, Experiment{
		ID:    "serve-obs",
		Title: "Telemetry overhead: identical serving workload with telemetry disarmed vs armed",
		Paper: "Not in the paper — extension: the disarmed-is-one-branch budget of the telemetry layer, measured end to end",
		Run: func(cfg RunConfig, w io.Writer) error {
			cfg = cfg.withDefaults()
			// The gate compares medians, so even the smallest scale gives
			// each side 32 ingest and 32 assign samples: one seed batch
			// plus 32 measured batches of 256 points.
			n := max(cfg.scaled(200_000), 33*256)
			fmt.Fprintf(w, "GAU k'=25 n=%d, k=25, shards=4, batch=256, clients=1, one assign per ingest; latencies in ms\n", n)
			m, err := RunObsOverhead(ServeSpec{K: 25, Shards: 4, Clients: 1, Batch: 256}, n, cfg.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%10s %12s %12s %12s %12s %10s\n",
				"telemetry", "ingest-p50", "ingest-p99", "assign-p50", "assign-p99", "QPS")
			fmt.Fprintf(w, "%10s %12.3f %12.3f %12.3f %12.3f %10.0f\n", "off",
				m.Disarmed.IngestP50, m.Disarmed.IngestP99, m.Disarmed.AssignP50, m.Disarmed.AssignP99, m.Disarmed.QPS)
			fmt.Fprintf(w, "%10s %12.3f %12.3f %12.3f %12.3f %10.0f\n", "on",
				m.Armed.IngestP50, m.Armed.IngestP99, m.Armed.AssignP50, m.Armed.AssignP99, m.Armed.QPS)
			fmt.Fprintf(w, "overhead delta (on - off): ingest p50 %+.3f ms, assign p50 %+.3f ms\n",
				m.IngestDeltaP50Ms, m.AssignDeltaP50Ms)
			// The gate is self-relative and noise-tolerant: flag only a median
			// that both doubled and moved by more than a quarter millisecond.
			for _, c := range []struct {
				route          string
				off, on, delta float64
			}{
				{"ingest", m.Disarmed.IngestP50, m.Armed.IngestP50, m.IngestDeltaP50Ms},
				{"assign", m.Disarmed.AssignP50, m.Armed.AssignP50, m.AssignDeltaP50Ms},
			} {
				if c.on > 2*c.off && c.delta > 0.25 {
					return fmt.Errorf("telemetry overhead on %s p50: %.3f ms armed vs %.3f ms disarmed", c.route, c.on, c.off)
				}
			}
			fmt.Fprintln(w, "PASS: armed medians within noise of disarmed (< 2x and < +0.25 ms)")
			return nil
		},
	})
}
