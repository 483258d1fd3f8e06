// The tenant view: the one registry snapshot, status classification and
// counter table that /v1/stats, /v1/tenants, /v1/healthz, /metrics and the
// background loops read tenants through.

package server

import (
	"slices"
	"sort"
)

// sortedTenants snapshots the registry, default tenant first, then by name,
// keeping the tenants keep accepts (every tenant when keep is nil).
func (s *Service) sortedTenants(keep func(*tenant) bool) []*tenant {
	s.tmu.RLock()
	all := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		all = append(all, t)
	}
	s.tmu.RUnlock()
	if keep != nil {
		all = slices.DeleteFunc(all, func(t *tenant) bool { return !keep(t) })
	}
	sort.Slice(all, func(i, j int) bool { return tenantNameLess(all[i].name, all[j].name) })
	return all
}

// live tenants own an ingester: every tenant but a failed one.
func live(t *tenant) bool { return t.failed == nil }

// healthy tenants hold state worth checkpointing or pushing to peers: live,
// not degraded (a degraded tenant's last good checkpoint is the state a
// restart must recover, and its suspect summaries must not propagate), and
// holding data.
func healthy(t *tenant) bool { return live(t) && t.checkDegraded() == nil && t.dim.Load() != 0 }

// tenantView is one tenant read once: its status and its counters. A reply
// built from views reports each tenant as it was at one instant.
type tenantView struct {
	t *tenant
	// status is "failed" (quarantined because its checkpoint did not
	// restore; it refuses all traffic), else "degraded" (quarantined at
	// runtime after a contained panic; it serves its last good snapshot
	// read-only), else "active"; err is the typed cause, nil while active.
	status string
	err    error
	tenantCounters
}

// view reads the tenant once: it classifies its status and reads every
// counter of the table.
func (t *tenant) view() tenantView {
	v := tenantView{t: t, status: "active", err: t.failed}
	if v.err != nil {
		v.status = "failed"
	} else if v.err = t.checkDegraded(); v.err != nil {
		v.status = "degraded"
	}
	for _, row := range counterTable {
		*row.field(&v.tenantCounters) = row.read(t)
	}
	return v
}

// views reads every registered tenant once, in sortedTenants order.
func (s *Service) views() []tenantView {
	all := s.sortedTenants(nil)
	vs := make([]tenantView, len(all))
	for i, t := range all {
		vs[i] = t.view()
	}
	return vs
}

// tenantCounters is one reading of a tenant's counters, filled by
// counterTable. Its json-tagged fields, in order, are the counter block of
// the /v1/stats reply (statsResponse embeds it); the "-" fields appear
// later in that reply (Dropped is its dropped_points) or only on /metrics.
type tenantCounters struct {
	AcceptedPoints  int64 `json:"accepted_points"`
	AcceptedBatches int64 `json:"accepted_batches"`
	PendingBatches  int64 `json:"pending_batches"`
	IngestedPoints  int64 `json:"ingested_points"`
	AssignRequests  int64 `json:"assign_requests"`
	AssignPoints    int64 `json:"assign_points"`
	// DistEvals counts the assignment distance evaluations the snapshot's
	// metric.Index actually performed: k per point on its plain scan,
	// sub-linear in k on its sweep and its pruned scan.
	DistEvals      int64 `json:"dist_evals"`
	SnapshotBuilds int64 `json:"snapshot_builds"`
	// ShedBatches/ShedPoints count ingest batches (and the points in them)
	// rejected with 429 because the queue stayed at its watermark past the
	// shed patience.
	ShedBatches int64 `json:"shed_batches"`
	ShedPoints  int64 `json:"shed_points"`
	// CheckpointWrites/CheckpointErrors count persistence activity (0 when
	// checkpointing is not configured).
	CheckpointWrites int64 `json:"checkpoint_writes"`
	CheckpointErrors int64 `json:"checkpoint_errors"`

	Dropped       int64 `json:"-"`
	BurstDrains   int64 `json:"-"`
	BurstMessages int64 `json:"-"`
}

// counterTable lists every per-tenant counter once, in /metrics family
// order: its /metrics family, type and help text (no family: /v1/stats
// only), the tenantCounters field it fills (whose json tag is its /v1/stats
// key), and its reader. /v1/stats, /v1/tenants, /metrics and the stats
// aggregate all report the readings it takes.
var counterTable = []struct {
	family, typ, help string
	field             func(*tenantCounters) *int64
	read              func(*tenant) int64
}{
	{"kcenter_tenant_accepted_points_total", "counter", "Points validated and queued.",
		func(c *tenantCounters) *int64 { return &c.AcceptedPoints },
		func(t *tenant) int64 { return t.acceptedPoints.Load() }},
	{"kcenter_tenant_ingested_points_total", "counter", "Points handed to the sharded ingester.",
		func(c *tenantCounters) *int64 { return &c.IngestedPoints },
		func(t *tenant) int64 { return t.ingestedPoints.Load() }},
	{"kcenter_tenant_assign_points_total", "counter", "Points assigned to centers.",
		func(c *tenantCounters) *int64 { return &c.AssignPoints },
		func(t *tenant) int64 { return t.assignPoints.Load() }},
	{"kcenter_tenant_shed_points_total", "counter", "Points shed with 429 at the queue watermark.",
		func(c *tenantCounters) *int64 { return &c.ShedPoints },
		func(t *tenant) int64 { return t.shedPoints.Load() }},
	{"kcenter_tenant_dropped_points_total", "counter", "Accepted points discarded by a degraded tenant.",
		func(c *tenantCounters) *int64 { return &c.Dropped },
		(*tenant).totalDropped},
	{"kcenter_tenant_checkpoint_writes_total", "counter", "Successful checkpoint writes.",
		func(c *tenantCounters) *int64 { return &c.CheckpointWrites },
		func(t *tenant) int64 { return t.ckptWrites.Load() }},
	{"kcenter_tenant_checkpoint_errors_total", "counter", "Failed checkpoint writes.",
		func(c *tenantCounters) *int64 { return &c.CheckpointErrors },
		func(t *tenant) int64 { return t.ckptErrors.Load() }},
	{"kcenter_tenant_snapshot_builds_total", "counter", "Query snapshot rebuilds (center set changed).",
		func(c *tenantCounters) *int64 { return &c.SnapshotBuilds },
		func(t *tenant) int64 { return t.snapshotBuilds.Load() }},
	{"kcenter_tenant_burst_drains_total", "counter", "Shard burst-drain rounds.",
		func(c *tenantCounters) *int64 { return &c.BurstDrains },
		func(t *tenant) int64 { return streamCounter(t, false) }},
	{"kcenter_tenant_burst_messages_total", "counter", "Messages consumed by burst drains (ratio to drains = mean burst occupancy).",
		func(c *tenantCounters) *int64 { return &c.BurstMessages },
		func(t *tenant) int64 { return streamCounter(t, true) }},
	{"kcenter_tenant_pending_batches", "gauge", "Batches queued but not yet pushed.",
		func(c *tenantCounters) *int64 { return &c.PendingBatches },
		func(t *tenant) int64 { return t.pendingBatches.Load() }},
	{field: func(c *tenantCounters) *int64 { return &c.AcceptedBatches },
		read: func(t *tenant) int64 { return t.acceptedBatches.Load() }},
	{field: func(c *tenantCounters) *int64 { return &c.AssignRequests },
		read: func(t *tenant) int64 { return t.assignRequests.Load() }},
	{field: func(c *tenantCounters) *int64 { return &c.DistEvals },
		read: func(t *tenant) int64 { return t.distEvals.Load() }},
	{field: func(c *tenantCounters) *int64 { return &c.ShedBatches },
		read: func(t *tenant) int64 { return t.shedBatches.Load() }},
}

// streamCounter reads a tenant's burst counters, tolerating tenants without
// metrics (no Telemetry, or quarantined).
func streamCounter(t *tenant, messages bool) int64 {
	if t.metrics == nil {
		return 0
	}
	if messages {
		return t.metrics.Stream.BurstMessages.Load()
	}
	return t.metrics.Stream.Bursts.Load()
}
