// Package obs is the process-wide, low-overhead telemetry layer for the
// serving stack: atomic counters, lock-free fixed-bucket latency histograms,
// a lightweight per-request stage trace, and a small leveled structured
// logger. It follows the same discipline as internal/fault — disarmed, every
// instrumentation point costs one atomic load (StartTrace returns nil,
// Started returns the zero time, and the nil/zero fast paths of Mark and
// ObserveSince are a single branch) — so production binaries carry the
// telemetry points on every hot path at no measurable cost until an operator
// arms them.
//
// The package is a leaf: internal/stream, internal/checkpoint and
// internal/server all record into it, and internal/server exposes what it
// records three ways — GET /metrics Prometheus text exposition (prom.go
// holds the format helpers), p50/p99/max latency fields in /v1/stats, and a
// threshold-gated slow-request log with the per-stage breakdown.
//
// Attribution model: the serving layer allocates one TenantMetrics per
// tenant (route × stage histograms plus the stream shard metrics), and the
// histograms merge associatively — identical bucket bounds everywhere — so
// per-tenant series roll up to process totals at scrape time with a few
// integer adds per bucket. Process-wide signals with no tenant (checkpoint
// write and fsync durations) live in the package-level histograms below.
package obs

import (
	"sync/atomic"
	"time"
)

// armed is the package-level enable flag: every disarmed instrumentation
// point costs exactly one load of it.
var armed atomic.Bool

// Enable arms telemetry recording process-wide: StartTrace allocates traces,
// Started returns real timestamps, and stream/checkpoint instrumentation
// records. Idempotent.
func Enable() { armed.Store(true) }

// Disable disarms telemetry recording, restoring the one-atomic-load fast
// path everywhere. Already-recorded histogram state is kept (it is cheap and
// an operator disarming mid-flight still wants the history scraped).
func Disable() { armed.Store(false) }

// Enabled reports whether telemetry recording is armed.
func Enabled() bool { return armed.Load() }

// Started returns time.Now() when telemetry is armed and the zero time
// otherwise. Pair it with Histogram.ObserveSince, which treats the zero time
// as "do not record": the disarmed cost of a timed section is one atomic
// load here and one IsZero branch there, with no clock reads.
func Started() time.Time {
	if !armed.Load() {
		return time.Time{}
	}
	return time.Now()
}

// Process-wide histograms for signals that have no tenant: the checkpoint
// write path is shared by every tenant's checkpoint loop, so its durations
// aggregate process-wide. internal/checkpoint records into these; the
// /metrics handler exposes them as
// kcenter_checkpoint_{write,fsync}_duration_seconds.
var (
	// CheckpointWrite observes the full atomic checkpoint write (encode,
	// temp file, fsync, rename, dir sync), successful writes only.
	CheckpointWrite Histogram
	// CheckpointFsync observes the temp-file fsync alone — the step that
	// dominates checkpoint latency on real disks.
	CheckpointFsync Histogram
)

// Route names an HTTP route the serving layer attributes request latency to.
type Route uint8

// The two latency-bearing routes. Query-only routes (centers, stats,
// tenants, healthz) are not traced: their cost is dominated by the JSON
// encode of O(shards·k) state and they are off every capacity-planning path.
const (
	RouteIngest Route = iota
	RouteAssign
	NumRoutes
)

func (r Route) String() string {
	switch r {
	case RouteIngest:
		return "ingest"
	case RouteAssign:
		return "assign"
	}
	return "invalid"
}

// Stage names one timed span inside a request, the stages the serving code
// already delineates.
type Stage uint8

// Stages of the two traced routes. Ingest requests pass decode → queue_wait
// → encode synchronously, with push (the shard ingest of a dequeued batch)
// recorded asynchronously by the tenant's ingest worker; assign requests
// pass decode → snapshot → kernel → encode.
const (
	// StageDecode is request body read, JSON decode and point validation.
	StageDecode Stage = iota
	// StageQueueWait is the time an ingest handler spent enqueueing the
	// batch — ~0 with queue space, up to ShedAfter at the watermark.
	StageQueueWait
	// StagePush is the shard ingest of one dequeued batch (PushBatch in the
	// tenant's worker) — asynchronous to the request that queued it.
	StagePush
	// StageSnapshot is acquiring the consistent query snapshot (a cache hit
	// in steady state, a merge after a center change).
	StageSnapshot
	// StageKernel is the nearest-center scan over the batch.
	StageKernel
	// StageEncode is the JSON response encode and write.
	StageEncode
	NumStages
)

func (s Stage) String() string {
	switch s {
	case StageDecode:
		return "decode"
	case StageQueueWait:
		return "queue_wait"
	case StagePush:
		return "push"
	case StageSnapshot:
		return "snapshot"
	case StageKernel:
		return "kernel"
	case StageEncode:
		return "encode"
	}
	return "invalid"
}

// RouteMetrics is one route's latency family: the end-to-end request
// histogram plus one histogram per stage.
type RouteMetrics struct {
	// Total observes the end-to-end request latency.
	Total Histogram
	// Stages observes each per-stage span, indexed by Stage. Unused stages
	// of a route (e.g. snapshot on ingest) simply stay empty.
	Stages [NumStages]Histogram
}

// StreamMetrics is the shard-side telemetry a stream.Sharded ingester
// records when armed: how long messages dwell in shard channels and how
// bursty the drain is.
type StreamMetrics struct {
	// Dwell observes the time each channel message spent queued between the
	// producer's send and the shard goroutine starting to summarize it —
	// the ingest pipeline's internal queue wait.
	Dwell Histogram
	// Bursts counts burst-drain rounds and BurstMessages the messages they
	// consumed; their ratio is the mean burst occupancy (1 = no batching
	// benefit, up to the drain cap under backlog).
	Bursts        atomic.Int64
	BurstMessages atomic.Int64
}

// TenantMetrics is the full per-tenant metric set the serving layer records
// into: per-route request/stage histograms plus the tenant ingester's
// stream metrics. All fields are lock-free; one instance is shared by every
// handler and worker of a tenant.
type TenantMetrics struct {
	Routes [NumRoutes]RouteMetrics
	Stream StreamMetrics
}

// NewTenantMetrics allocates an empty metric set.
func NewTenantMetrics() *TenantMetrics { return &TenantMetrics{} }

// Route returns the named route's metrics.
func (m *TenantMetrics) Route(r Route) *RouteMetrics { return &m.Routes[r] }

// StageHist returns one (route, stage) histogram, for recorders that time a
// stage outside a Trace (the ingest worker's push span).
func (m *TenantMetrics) StageHist(r Route, s Stage) *Histogram {
	return &m.Routes[r].Stages[s]
}
