// GET /metrics: Prometheus text-format exposition (version 0.0.4) of the
// whole telemetry surface — per-tenant and aggregate request/stage latency
// histograms (live while Config.Telemetry is armed), the per-tenant
// counters of counterTable (the same readings /v1/stats reports), tenant
// health gauges, handler panics, shard channel dwell, burst occupancy,
// replication state, and the Service's checkpoint write/fsync durations.
// Scrapes read atomics and take per-tenant histogram snapshots; they never
// merge clusterings or take shard locks beyond the per-shard stat reads, so
// a scraper cannot perturb the serving path.
//
// Naming: per-tenant series carry a {tenant=...} label under a
// kcenter_tenant_* family; the process aggregates are separately named
// kcenter_* families built by merging the per-tenant histogram snapshots at
// scrape time — exact, because every histogram shares the same bucket
// bounds — so sum()-style double counting across the two granularities is
// impossible by construction. Family names stay whole string literals:
// scripts/docscheck.sh extracts them to check ARCHITECTURE's signal table.

package server

import (
	"net/http"
	"net/http/pprof"
	"time"

	"kcenter/internal/obs"
)

// routeLatency is the /v1/stats distribution summary for one route, derived
// from the same histogram /metrics exposes in full.
type routeLatency struct {
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	Count int64   `json:"count"`
}

// routeLatencyFrom summarizes one route's end-to-end histogram; nil while
// the histogram is empty (telemetry disarmed, or no requests yet), so the
// stats field stays omitted and pre-telemetry replies are byte-identical.
func routeLatencyFrom(h *obs.Histogram) *routeLatency {
	s := h.Snapshot()
	if s.Count == 0 {
		return nil
	}
	return &routeLatency{
		P50Ms: s.Quantile(0.50).Seconds() * 1e3,
		P99Ms: s.Quantile(0.99).Seconds() * 1e3,
		MaxMs: (time.Duration(s.MaxNanos)).Seconds() * 1e3,
		Count: s.Count,
	}
}

// registerPprof mounts the net/http/pprof handlers on mux (Config.Pprof
// gates the call). The pprof package's init also registers on
// http.DefaultServeMux, but the service never serves that mux, so without
// this explicit mount the endpoints stay unreachable.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// tenantScrape is one tenant's view plus its histogram snapshots, taken at
// the top of a scrape, so every family in the reply describes the same
// instant per tenant.
type tenantScrape struct {
	tenantView
	// reqs / stages are the per-route histogram snapshots; stream the shard
	// dwell one.
	reqs   [obs.NumRoutes]obs.HistogramSnapshot
	stages [obs.NumRoutes][obs.NumStages]obs.HistogramSnapshot
	stream obs.HistogramSnapshot
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	views := s.views()
	scrapes := make([]tenantScrape, len(views))
	byStatus := map[string]int{}
	for i, v := range views {
		byStatus[v.status]++
		ts := &scrapes[i]
		ts.tenantView = v
		if m := v.t.metrics; m != nil {
			for ro := obs.Route(0); ro < obs.NumRoutes; ro++ {
				ts.reqs[ro] = m.Routes[ro].Total.Snapshot()
				for st := obs.Stage(0); st < obs.NumStages; st++ {
					ts.stages[ro][st] = m.Routes[ro].Stages[st].Snapshot()
				}
			}
			ts.stream = m.Stream.Dwell.Snapshot()
		}
	}

	w.Header().Set("Content-Type", obs.PromContentType)

	// Process gauges.
	obs.WriteHeader(w, "kcenter_up", "gauge", "1 while the service answers.")
	obs.WriteSample(w, "kcenter_up", nil, 1)
	obs.WriteHeader(w, "kcenter_uptime_seconds", "gauge", "Seconds since the service started.")
	obs.WriteSample(w, "kcenter_uptime_seconds", nil, time.Since(s.started).Seconds())
	obs.WriteHeader(w, "kcenter_telemetry_armed", "gauge", "1 while this service records telemetry (Config.Telemetry).")
	obs.WriteSample(w, "kcenter_telemetry_armed", nil, boolGauge(s.cfg.Telemetry))
	obs.WriteHeader(w, "kcenter_fault_injection_armed", "gauge", "1 while this service's fault-injection rules are armed.")
	obs.WriteSample(w, "kcenter_fault_injection_armed", nil, boolGauge(s.cfg.Faults.Armed()))
	obs.WriteHeader(w, "kcenter_handler_panics_total", "counter", "Panics the HTTP recovery middleware contained.")
	obs.WriteSample(w, "kcenter_handler_panics_total", nil, float64(s.handlerPanics.Load()))

	// Tenant health.
	obs.WriteHeader(w, "kcenter_tenants", "gauge", "Registered tenants by status.")
	for _, st := range []string{"active", "degraded", "failed"} {
		obs.WriteSample(w, "kcenter_tenants", []obs.Label{{Name: "status", Value: st}}, float64(byStatus[st]))
	}

	// Per-tenant counters (and the pending-batch gauge), one family per
	// counterTable row so types stay honest.
	for _, row := range counterTable {
		if row.family == "" {
			continue
		}
		obs.WriteHeader(w, row.family, row.typ, row.help)
		for i := range scrapes {
			obs.WriteSample(w, row.family, tenantLabel(scrapes[i].t), float64(*row.field(&scrapes[i].tenantCounters)))
		}
	}

	// Request latency histograms: per-tenant, then the exact aggregate from
	// merging the per-tenant snapshots (identical bucket bounds everywhere).
	obs.WriteHeader(w, "kcenter_tenant_request_duration_seconds", "histogram",
		"End-to-end request latency per tenant and route.")
	var aggReq [obs.NumRoutes]obs.HistogramSnapshot
	for _, ts := range scrapes {
		for ro := obs.Route(0); ro < obs.NumRoutes; ro++ {
			obs.WriteHistogram(w, "kcenter_tenant_request_duration_seconds",
				append(tenantLabel(ts.t), obs.Label{Name: "route", Value: ro.String()}), ts.reqs[ro])
			aggReq[ro].Merge(ts.reqs[ro])
		}
	}
	obs.WriteHeader(w, "kcenter_request_duration_seconds", "histogram",
		"End-to-end request latency per route, aggregated over tenants.")
	for ro := obs.Route(0); ro < obs.NumRoutes; ro++ {
		obs.WriteHistogram(w, "kcenter_request_duration_seconds",
			[]obs.Label{{Name: "route", Value: ro.String()}}, aggReq[ro])
	}

	// Stage latency histograms. Empty (route, stage) pairs are skipped per
	// tenant — a route never uses every stage — but aggregates always list
	// the stages that recorded anywhere.
	obs.WriteHeader(w, "kcenter_tenant_stage_duration_seconds", "histogram",
		"Per-stage latency per tenant and route (stages a route never runs are omitted).")
	var aggStage [obs.NumRoutes][obs.NumStages]obs.HistogramSnapshot
	for _, ts := range scrapes {
		for ro := obs.Route(0); ro < obs.NumRoutes; ro++ {
			for st := obs.Stage(0); st < obs.NumStages; st++ {
				aggStage[ro][st].Merge(ts.stages[ro][st])
				if ts.stages[ro][st].Count == 0 {
					continue
				}
				obs.WriteHistogram(w, "kcenter_tenant_stage_duration_seconds",
					append(tenantLabel(ts.t),
						obs.Label{Name: "route", Value: ro.String()},
						obs.Label{Name: "stage", Value: st.String()}), ts.stages[ro][st])
			}
		}
	}
	obs.WriteHeader(w, "kcenter_stage_duration_seconds", "histogram",
		"Per-stage latency per route, aggregated over tenants.")
	for ro := obs.Route(0); ro < obs.NumRoutes; ro++ {
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			if aggStage[ro][st].Count == 0 {
				continue
			}
			obs.WriteHistogram(w, "kcenter_stage_duration_seconds",
				[]obs.Label{{Name: "route", Value: ro.String()}, {Name: "stage", Value: st.String()}},
				aggStage[ro][st])
		}
	}

	// Shard channel dwell: how long ingest messages waited for their shard.
	obs.WriteHeader(w, "kcenter_tenant_shard_dwell_seconds", "histogram",
		"Time ingest messages dwelt in shard channels before being summarized.")
	var aggDwell obs.HistogramSnapshot
	for _, ts := range scrapes {
		obs.WriteHistogram(w, "kcenter_tenant_shard_dwell_seconds", tenantLabel(ts.t), ts.stream)
		aggDwell.Merge(ts.stream)
	}
	obs.WriteHeader(w, "kcenter_shard_dwell_seconds", "histogram",
		"Shard channel dwell aggregated over tenants.")
	obs.WriteHistogram(w, "kcenter_shard_dwell_seconds", nil, aggDwell)

	// Replication: push-side per peer, receive-side per tenant × origin.
	// Families appear only once replication is in play, so scrapes of a
	// replication-free node are unchanged.
	if len(s.peers) > 0 {
		obs.WriteHeader(w, "kcenter_replicate_peer_pushes_total", "counter", "Successful state pushes per peer.")
		for _, p := range s.peers {
			obs.WriteSample(w, "kcenter_replicate_peer_pushes_total", peerLabel(p), float64(p.pushes.Load()))
		}
		obs.WriteHeader(w, "kcenter_replicate_peer_errors_total", "counter", "Failed state pushes per peer.")
		for _, p := range s.peers {
			obs.WriteSample(w, "kcenter_replicate_peer_errors_total", peerLabel(p), float64(p.errors.Load()))
		}
		obs.WriteHeader(w, "kcenter_replicate_peer_quarantined", "gauge", "1 while the peer is backing off after push failures.")
		for _, p := range s.peers {
			obs.WriteSample(w, "kcenter_replicate_peer_quarantined", peerLabel(p), boolGauge(p.status().Quarantined))
		}
	}
	now := time.Now()
	type originScrape struct {
		labels []obs.Label
		os     originStatus
	}
	var origins []originScrape
	for _, ts := range scrapes {
		for _, os := range ts.t.originStatuses(now) {
			origins = append(origins, originScrape{originLabels(ts.t, os), os})
		}
	}
	if len(origins) > 0 {
		obs.WriteHeader(w, "kcenter_tenant_replicate_merges_total", "counter", "Remote states folded into the tenant, per origin.")
		for _, o := range origins {
			obs.WriteSample(w, "kcenter_tenant_replicate_merges_total", o.labels, float64(o.os.Merges))
		}
		obs.WriteHeader(w, "kcenter_tenant_replicate_rejects_total", "counter", "Inbound states rejected by validation, per origin.")
		for _, o := range origins {
			obs.WriteSample(w, "kcenter_tenant_replicate_rejects_total", o.labels, float64(o.os.Rejects))
		}
		obs.WriteHeader(w, "kcenter_tenant_replicate_staleness_seconds", "gauge", "Seconds since the origin's last applied state arrived.")
		for _, o := range origins {
			obs.WriteSample(w, "kcenter_tenant_replicate_staleness_seconds", o.labels, o.os.StalenessSeconds)
		}
	}

	// Checkpoint durations (no tenant: the write path is shared by every
	// tenant's checkpoint loop); empty without Telemetry.
	var ckptWrite, ckptFsync obs.HistogramSnapshot
	if m := s.ckptMetrics; m != nil {
		ckptWrite, ckptFsync = m.Write.Snapshot(), m.Fsync.Snapshot()
	}
	obs.WriteHeader(w, "kcenter_checkpoint_write_duration_seconds", "histogram",
		"Full atomic checkpoint write duration, successful writes only.")
	obs.WriteHistogram(w, "kcenter_checkpoint_write_duration_seconds", nil, ckptWrite)
	obs.WriteHeader(w, "kcenter_checkpoint_fsync_duration_seconds", "histogram",
		"Checkpoint temp-file fsync duration.")
	obs.WriteHistogram(w, "kcenter_checkpoint_fsync_duration_seconds", nil, ckptFsync)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func tenantLabel(t *tenant) []obs.Label {
	return []obs.Label{{Name: "tenant", Value: t.name}}
}

func peerLabel(p *replicaPeer) []obs.Label {
	return []obs.Label{{Name: "peer", Value: p.url}}
}

func originLabels(t *tenant, os originStatus) []obs.Label {
	return append(tenantLabel(t), obs.Label{Name: "origin", Value: os.Origin})
}
