// Health surface and handler panic containment. GET /v1/healthz separates
// the two questions an orchestrator asks: liveness ("is the process worth
// keeping?") and readiness ("should traffic route here?"). Liveness is
// answering at all; readiness is "not shutting down". Per-tenant failure is
// deliberately NOT a readiness failure: a degraded or quarantined tenant is
// contained, its siblings serve normally, and restarting the process would
// not heal it — the degraded/failed tenant lists are surfaced here (and in
// /v1/stats and /v1/tenants) for alerting instead.

package server

import (
	"fmt"
	"net/http"
	"time"

	"kcenter/internal/obs"
)

// healthzResponse is the GET /v1/healthz reply.
type healthzResponse struct {
	// Status summarizes: "ok", "degraded" (some tenant is degraded or
	// failed; the process still serves) or "shutting-down".
	Status string `json:"status"`
	// Live is always true in a response — a process that cannot answer
	// sends nothing. It exists so ?probe=live has an explicit field.
	Live bool `json:"live"`
	// Ready is false once Close has begun; the response carries 503 then
	// (unless ?probe=live), so load balancers drain the instance.
	Ready         bool    `json:"ready"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Tenants is the registry size (failed tenants included).
	Tenants int `json:"tenants"`
	// DegradedTenants names tenants quarantined at runtime (a contained
	// worker/shard panic): serving last good snapshot read-only.
	DegradedTenants []string `json:"degraded_tenants,omitempty"`
	// FailedTenants names tenants born quarantined (checkpoint restore
	// failure): refusing all traffic.
	FailedTenants []string `json:"failed_tenants,omitempty"`
	// HandlerPanics counts panics the recovery middleware contained.
	HandlerPanics int64 `json:"handler_panics"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	probe := r.URL.Query().Get("probe")
	if probe != "" && probe != "live" && probe != "ready" {
		writeError(w, http.StatusBadRequest, "probe must be \"live\" or \"ready\"")
		return
	}
	resp := healthzResponse{
		Live:          true,
		Ready:         !s.closed.Load(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		HandlerPanics: s.handlerPanics.Load(),
	}
	vs := s.views()
	resp.Tenants = len(vs)
	byStatus := map[string][]string{}
	for _, v := range vs {
		byStatus[v.status] = append(byStatus[v.status], v.t.name)
	}
	resp.DegradedTenants, resp.FailedTenants = byStatus["degraded"], byStatus["failed"]
	switch {
	case !resp.Ready:
		resp.Status = "shutting-down"
	case len(resp.DegradedTenants)+len(resp.FailedTenants) > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "ok"
	}
	status := http.StatusOK
	if probe != "live" && !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// Handler returns the service's HTTP handler: the /v1 mux wrapped in a
// recovery layer, so a panic escaping any handler (an organic bug, or the
// server.decode fault point in panic mode) is contained into a JSON 500 —
// and counted in handler_panics — instead of unwinding the whole connection
// goroutine. Handlers that panic after writing their response headers get a
// best-effort error body; either way the process survives.
func (s *Service) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.handlerPanics.Add(1)
				obs.Default().Error("contained handler panic",
					"method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(v))
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}
