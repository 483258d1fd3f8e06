// Per-request stage tracing. A Trace timestamps the stages the serving code
// already delineates and, on Finish, folds them into the tenant's histograms
// and (past a threshold) emits one structured slow-request log line with the
// per-stage breakdown. Traces are pooled and nil-safe: when the caller's
// telemetry is disarmed StartTrace returns nil and every method is a
// nil-receiver no-op, so the armed check is paid once per request, not once
// per stage.

package obs

import (
	"sync"
	"time"
)

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// Trace accumulates one request's per-stage durations. Obtain with
// StartTrace; all methods are safe on a nil receiver. A Trace is used by one
// goroutine (the request handler) and must not be touched after Finish.
type Trace struct {
	route  Route
	start  time.Time
	last   time.Time
	stages [NumStages]time.Duration
}

// StartTrace begins a trace for one request on the given route, or returns
// nil when armed is false (the caller's telemetry is off).
func StartTrace(r Route, armed bool) *Trace {
	if !armed {
		return nil
	}
	t := tracePool.Get().(*Trace)
	*t = Trace{route: r}
	t.start = time.Now()
	t.last = t.start
	return t
}

// Mark attributes the time since the previous mark (or the trace start) to
// stage s. Stages may be marked more than once; durations accumulate.
func (t *Trace) Mark(s Stage) {
	if t == nil {
		return
	}
	now := time.Now()
	t.stages[s] += now.Sub(t.last)
	t.last = now
}

// Skip discards the time since the previous mark without attributing it to
// any stage — for spans between stages that are nobody's latency (tenant
// resolution, header plumbing). The gap still counts toward the total.
func (t *Trace) Skip() {
	if t == nil {
		return
	}
	t.last = time.Now()
}

// Finish closes the trace: the end-to-end duration and each marked stage are
// observed into m's histograms for the trace's route, a slow-request line is
// logged when slow > 0 and the total meets it, and the Trace returns to the
// pool. A nil m (request failed before tenant resolution) discards the
// measurements but still pools the Trace.
func (t *Trace) Finish(m *TenantMetrics, tenant string, slow time.Duration) {
	if t == nil {
		return
	}
	total := time.Since(t.start)
	if m != nil {
		rm := &m.Routes[t.route]
		rm.Total.Observe(total)
		for s, d := range t.stages {
			if d > 0 {
				rm.Stages[s].Observe(d)
			}
		}
	}
	if slow > 0 && total >= slow {
		kv := make([]any, 0, 2*(NumStages+3))
		kv = append(kv, "route", t.route.String(), "tenant", tenant, "total", total)
		for s, d := range t.stages {
			if d > 0 {
				kv = append(kv, Stage(s).String(), d)
			}
		}
		Default().Warn("slow request", kv...)
	}
	*t = Trace{}
	tracePool.Put(t)
}
