// Package kcenter is a parallel k-center clustering library reproducing
// McClintock & Wirth, "Efficient Parallel Algorithms for k-Center
// Clustering" (ICPP 2016).
//
// The k-center problem asks for at most k centers, chosen among the input
// points, minimizing the maximum distance from any point to its nearest
// center. It is NP-hard; 2 is the best possible approximation factor, and
// the classic sequential algorithms achieving it do not parallelize
// directly. This package provides:
//
//   - Gonzalez: the sequential greedy 2-approximation (the paper's GON),
//     O(k·n).
//   - MRG: "MapReduce Gonzalez" — the paper's multi-round parallel
//     algorithm. Two rounds give a 4-approximation; i rounds give 2(i+1).
//   - EIM: the paper's generalization of Ene–Im–Moseley iterative sampling,
//     with the pivot parameter φ trading approximation confidence for speed
//     (φ = 8 reproduces the original 10-approximation algorithm).
//   - Stream: insertion-only streaming k-center via the doubling algorithm,
//     with optional sharded concurrent ingestion. Memory is O(s·k),
//     independent of the stream length — points are never materialized.
//   - Server: an HTTP/JSON serving layer over the same streaming substrate.
//     POST /v1/ingest feeds batches in (bounded queue with 429/Retry-After
//     load shedding at the watermark), POST /v1/assign answers batch
//     nearest-center queries against consistent snapshots, GET /v1/centers
//     and /v1/stats expose the clustering and service counters. Optional
//     checkpoint/restore persistence lets a restarted server resume its
//     clustering warm. See NewServer and the kcenter serve subcommand.
//
// Parallel algorithms run on a simulated MapReduce cluster (m machines,
// default 50 as in the paper); reported runtimes follow the paper's cost
// model: per-round maximum over machines, summed over rounds.
//
// Quick start (batch):
//
//	ds, _ := kcenter.NewDataset(points)          // [][]float64, equal dims
//	res, _ := kcenter.MRG(ds, 10, kcenter.MRGOptions{})
//	fmt.Println(res.Radius, res.Centers)
//
// # Streaming
//
// NewStream opens an ingester that never stores the points it sees. Each of
// its s shards (goroutine-owned, fed over channels) runs the doubling
// algorithm: it keeps at most k centers and a radius r such that every
// point seen so far lies within 4r of a center and r ≤ 2·OPT; on overflow r
// doubles and nearby centers merge. Finish reclusters the ≤ s·k shard
// centers with Gonzalez — the same two-level composition as the paper's MRG,
// with shards in place of mapper partitions — and returns centers covering
// the whole stream within 8·OPT (one shard) or 10·OPT (many shards):
//
//	st, _ := kcenter.NewStream(10, kcenter.StreamOptions{Shards: 4})
//	for row := range feed {                      // any insertion-only source
//		st.Push(row)                             // safe from many goroutines
//	}
//	res, _ := st.Finish()
//	fmt.Println(res.Radius, res.Centers)         // certified coverage bound
//
// Push is safe for concurrent producers; call Finish once, after all
// producers have returned. StreamResult centers are coordinates (copies of
// genuine input points), not dataset indices — there is no dataset.
package kcenter

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"kcenter/internal/assign"
	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/eim"
	"kcenter/internal/mapreduce"
	"kcenter/internal/metric"
	"kcenter/internal/mrg"
	"kcenter/internal/server"
	"kcenter/internal/stream"
)

// Dataset holds n points of equal dimension in a contiguous layout.
type Dataset struct {
	m *metric.Dataset
}

// NewDataset copies a slice of equal-length points into a Dataset.
func NewDataset(points [][]float64) (*Dataset, error) {
	m, err := metric.FromPoints(points)
	if err != nil {
		return nil, err
	}
	return &Dataset{m: m}, nil
}

// ReadCSV loads a numeric matrix from comma-separated text (UCI-style
// files). Non-numeric columns are skipped automatically, a first line
// with no numeric field is taken for a header, and a UTF-8 byte-order
// mark is dropped. The text is read in runs of whole lines, which are
// parsed on every core (runtime.GOMAXPROCS) once it spans more than one.
func ReadCSV(r io.Reader) (*Dataset, error) {
	m, err := dataset.LoadCSV(r, dataset.LoadCSVOptions{})
	if err != nil {
		return nil, err
	}
	return &Dataset{m: m}, nil
}

// Uniform generates n points uniformly in a 2-D square of side 100 — the
// paper's UNIF family.
func Uniform(n int, seed uint64) *Dataset {
	return &Dataset{m: dataset.Unif(dataset.UnifConfig{N: n, Seed: seed}).Points}
}

// Clustered generates the paper's GAU family: kPrime tight Gaussian clusters
// (σ = 0.1) with centers spread over a 2-D square of side 100.
func Clustered(n, kPrime int, seed uint64) *Dataset {
	return &Dataset{m: dataset.Gau(dataset.GauConfig{N: n, KPrime: kPrime, Seed: seed}).Points}
}

// Len returns the number of points.
func (d *Dataset) Len() int { return d.m.N }

// Dim returns the dimensionality.
func (d *Dataset) Dim() int { return d.m.Dim }

// At returns the coordinates of point i. The slice aliases internal storage;
// treat it as read-only.
func (d *Dataset) At(i int) []float64 { return d.m.At(i) }

// Result describes a k-center solution.
type Result struct {
	// Centers are indices into the dataset.
	Centers []int
	// Radius is the covering radius: the k-center objective value.
	Radius float64
	// Assignment[i] is the position in Centers of point i's nearest center.
	Assignment []int
	// Rounds is the number of MapReduce rounds used (0 for Gonzalez).
	Rounds int
	// ApproxFactor is the guarantee under which the result was produced
	// (2 for Gonzalez; 2(i+1) for MRG with i parallel iterations; 10 w.s.p.
	// for EIM with φ ≥ 8).
	ApproxFactor float64
	// SimulatedSeconds is the simulated parallel makespan under the paper's
	// cost model (0 for Gonzalez, which is not a MapReduce algorithm).
	SimulatedSeconds float64
}

// Gonzalez runs the sequential greedy 2-approximation (GON).
func Gonzalez(d *Dataset, k int) (*Result, error) {
	if err := checkArgs(d, k); err != nil {
		return nil, err
	}
	// The traversal carries the assignment through its own relaxation
	// passes, so no post-hoc assign.Evaluate scan (a second O(n·k) pass) is
	// needed; the result is bit-identical either way.
	res := core.GonzalezAssign(d.m, k, core.Options{First: 0})
	return &Result{
		Centers:      res.Centers,
		Radius:       res.Radius,
		Assignment:   res.Assignment,
		ApproxFactor: 2,
	}, nil
}

// MRGOptions configures the parallel MRG run. It has no seed: MRG splits
// the points into contiguous ranges in row order and starts each GON at
// its range's first point, so a run is a deterministic function of the
// dataset. The 4-approximation holds for every partition; to try another
// one, build the Dataset from the points in a different order.
type MRGOptions struct {
	// Machines is the simulated cluster size (default 50, as in the paper).
	Machines int
	// Capacity is the per-machine capacity in points; 0 picks the smallest
	// capacity that permits the 2-round, 4-approximation case.
	Capacity int
}

// MRG runs the paper's multi-round parallel Gonzalez (Algorithm 1).
func MRG(d *Dataset, k int, opt MRGOptions) (*Result, error) {
	if err := checkArgs(d, k); err != nil {
		return nil, err
	}
	res, err := mrg.Run(d.m, mrg.Config{
		K:       k,
		Cluster: mapreduce.Config{Machines: opt.Machines, Capacity: opt.Capacity},
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Centers:          res.Centers,
		Radius:           res.Radius,
		Assignment:       res.Evaluation.Assignment,
		Rounds:           res.MapReduceRounds,
		ApproxFactor:     res.ApproxFactor,
		SimulatedSeconds: res.Stats.SimulatedWall().Seconds(),
	}, nil
}

// EIMOptions configures the sampling algorithm.
type EIMOptions struct {
	// Machines is the simulated cluster size (default 50).
	Machines int
	// Phi is the pivot-selection parameter; 0 means the original φ = 8.
	// Values above 5.15 retain the probabilistic 10-approximation; smaller
	// values are faster with weaker guarantees (paper §6, §8.3).
	Phi float64
	// Epsilon is the sampling exponent; 0 means the paper's 0.1.
	Epsilon float64
	// Seed drives all sampling.
	Seed uint64
}

// EIM runs the paper's generalized iterative-sampling algorithm
// (Algorithms 2–3). When k is large relative to n the sampling loop never
// engages and EIM degenerates to Gonzalez on the whole input, as the paper
// observes in Figures 3b and 4b.
func EIM(d *Dataset, k int, opt EIMOptions) (*Result, error) {
	if err := checkArgs(d, k); err != nil {
		return nil, err
	}
	res, err := eim.Run(d.m, eim.Config{
		K:       k,
		Phi:     opt.Phi,
		Epsilon: opt.Epsilon,
		Cluster: mapreduce.Config{Machines: opt.Machines},
		Seed:    opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	factor := 10.0
	if opt.Phi > 0 && opt.Phi <= 5.15 {
		factor = 0 // below the provable threshold: no guarantee (paper §6)
	}
	return &Result{
		Centers:          res.Centers,
		Radius:           res.Radius,
		Assignment:       res.Evaluation.Assignment,
		Rounds:           res.MapReduceRounds,
		ApproxFactor:     factor,
		SimulatedSeconds: res.Stats.SimulatedWall().Seconds(),
	}, nil
}

// StreamOptions configures a streaming ingester.
type StreamOptions struct {
	// Shards is the number of concurrent shard goroutines; 0 means 1.
	// More shards raise ingestion throughput and loosen the certified
	// approximation factor from 8 to 10; with a single producer and a fixed
	// shard count the result is deterministic.
	Shards int
	// Metric names the distance: "" or "euclidean" (fast path),
	// "manhattan", or "chebyshev". The guarantees hold for any metric
	// satisfying the triangle inequality.
	Metric string
	// Buffer is the per-shard channel depth; 0 means 256.
	Buffer int
}

// Stream ingests an insertion-only point stream in O(Shards·k) memory.
// Create with NewStream, feed with Push (safe for concurrent producers) and
// close with Finish.
type Stream struct {
	sh     *stream.Sharded
	shards int
}

// StreamResult describes a finished stream's k-center solution.
type StreamResult struct {
	// Centers holds the ≤ k center coordinates; every row is a copy of a
	// genuine input point. (Unlike Result.Centers these are not dataset
	// indices — the stream never materializes a dataset.)
	Centers [][]float64
	// Radius is the certified coverage bound: every ingested point lies
	// within Radius of some center. It is at most ApproxFactor·OPT.
	Radius float64
	// LowerBound is a certified lower bound on the optimal radius;
	// LowerBound ≤ OPT ≤ Radius brackets the true objective.
	LowerBound float64
	// ApproxFactor is the guarantee under which Radius was produced: 8 for
	// a single shard, 10 for sharded ingestion.
	ApproxFactor float64
	// Ingested is the number of points pushed.
	Ingested int64
}

// NewStream opens a streaming ingester for at most k centers.
func NewStream(k int, opt StreamOptions) (*Stream, error) {
	if k <= 0 {
		return nil, fmt.Errorf("kcenter: k must be >= 1, got %d", k)
	}
	var m metric.Interface
	switch opt.Metric {
	case "", "euclidean":
		m = nil
	case "manhattan":
		m = metric.Manhattan{}
	case "chebyshev":
		m = metric.Chebyshev{}
	default:
		return nil, fmt.Errorf("kcenter: unknown metric %q (want euclidean, manhattan or chebyshev)", opt.Metric)
	}
	shards := opt.Shards
	if shards <= 0 {
		shards = 1
	}
	sh, err := stream.NewSharded(stream.ShardedConfig{
		K:      k,
		Shards: shards,
		Buffer: opt.Buffer,
		Metric: m,
	})
	if err != nil {
		return nil, err
	}
	return &Stream{sh: sh, shards: shards}, nil
}

// Push ingests one point. The coordinates are copied; the caller may reuse
// the slice. Push is safe for concurrent use by multiple producers.
func (s *Stream) Push(p []float64) error { return s.sh.Push(p) }

// Centers returns a snapshot of the current ≤ k centers while ingestion is
// still running, so live traffic can query the clustering without waiting
// for Finish. Each shard's state is read under a read lock; points still
// buffered inside the ingester are not yet reflected. The returned slices
// are copies. It is safe to call concurrently with Push and returns an
// error before the first point has been ingested.
func (s *Stream) Centers() ([][]float64, error) {
	snap, err := s.sh.Snapshot()
	if err != nil {
		return nil, err
	}
	centers := make([][]float64, snap.Centers.N)
	for i := range centers {
		centers[i] = append([]float64(nil), snap.Centers.At(i)...)
	}
	return centers, nil
}

// Finish drains the shards, merges their centers and returns the solution.
// Call it exactly once, after every producer goroutine has returned.
func (s *Stream) Finish() (*StreamResult, error) {
	res, err := s.sh.Finish()
	if err != nil {
		return nil, err
	}
	return newStreamResult(res, s.shards), nil
}

// newStreamResult converts an internal merged stream result to the facade
// type, copying the center coordinates out of internal storage.
func newStreamResult(res *stream.Result, shards int) *StreamResult {
	centers := make([][]float64, res.Centers.N)
	for i := range centers {
		centers[i] = append([]float64(nil), res.Centers.At(i)...)
	}
	factor := 8.0
	if shards > 1 {
		factor = 10
	}
	return &StreamResult{
		Centers:      centers,
		Radius:       res.Bound,
		LowerBound:   res.LowerBound,
		ApproxFactor: factor,
		Ingested:     res.Ingested,
	}
}

// ErrNothingIngested reports a Shutdown (or Finish) with no ingested data:
// there is no clustering to return, but nothing failed either. Detect it
// with errors.Is to distinguish an idle server from a real drain failure.
var ErrNothingIngested = stream.ErrEmpty

// ErrTenantFailed marks a tenant the server has taken out of rotation: its
// checkpoint failed to restore at startup, or a fault at runtime (an
// ingest-worker panic, a shard failure) degraded it. A degraded tenant
// keeps answering /v1/assign and /v1/centers from its last good snapshot,
// refuses new ingest with HTTP 409, and is excluded from checkpointing so
// the last good file on disk survives for the next restart. Errors
// returned by Shutdown for such a tenant wrap ErrTenantFailed; detect it
// with errors.Is. Siblings are unaffected — the containment boundary is
// the tenant. GET /v1/healthz lists degraded and failed tenants without
// failing readiness; GET /v1/tenants shows them with status "degraded" or
// "failed".
var ErrTenantFailed = server.ErrTenantFailed

// ServerOptions configures a clustering server. It is server.Config, so
// every setting is documented and defaulted in one place. K may be left 0:
// NewServer fills it from its k argument. Faults is typed from an internal
// package, so callers outside this module leave it nil (no injection).
type ServerOptions = server.Config

// ServerRestore describes the warm start a server performed from its
// checkpoint; see Server.Restored.
type ServerRestore struct {
	// Tenant is the tenant the restored state belongs to ("default" for
	// the single-tenant path).
	Tenant string
	// Path is the checkpoint file the state came from.
	Path string
	// Created is when the checkpoint was captured.
	Created time.Time
	// Ingested is the number of points the restored clustering had seen.
	Ingested int64
	// Centers is the total retained center count across shards.
	Centers int
	// Dim is the restored point dimensionality.
	Dim int
	// CentersVersion is the restored center-set version counter (the
	// /v1/assign snapshot version resumes from here).
	CentersVersion uint64
}

// Server is an HTTP/JSON clustering service over a live stream: POST
// /v1/ingest feeds batches into a sharded streaming ingester, POST
// /v1/assign answers batch nearest-center queries against a consistent
// snapshot of the current clustering, GET /v1/centers and GET /v1/stats
// expose the centers and service counters, GET /v1/tenants the tenant
// registry, and GET /v1/healthz liveness/readiness (degraded tenants are
// reported but do not fail readiness — see ErrTenantFailed for the
// degraded-tenant lifecycle). With MaxTenants > 0 one server multiplexes many independent
// clusterings: requests route to a tenant via the X-Kcenter-Tenant header
// (unnamed requests hit the implicit default tenant, byte-identical to
// single-tenant serving), each tenant owning its own ingester, queue,
// snapshot cache and checkpoint file. With a CheckpointPath it persists
// every tenant's clustering and resumes them warm on restart (see Restored
// and TenantRestores). Create with NewServer, mount Handler on an
// http.Server, and call Shutdown exactly once to drain in-flight batches
// and flush the final clustering.
type Server struct {
	svc    *server.Service
	shards int
}

// NewServer starts the clustering service for at most k centers. It begins
// serving traffic as soon as its Handler is mounted; the clustering runs on
// the same streaming substrate as NewStream (8-approx single shard,
// 10-approx sharded). opt.K may be left 0; a non-zero opt.K that differs
// from k is an error.
func NewServer(k int, opt ServerOptions) (*Server, error) {
	if k <= 0 {
		return nil, fmt.Errorf("kcenter: k must be >= 1, got %d", k)
	}
	if opt.K != 0 && opt.K != k {
		return nil, fmt.Errorf("kcenter: ServerOptions.K = %d conflicts with k = %d", opt.K, k)
	}
	opt.K = k
	if opt.Shards <= 0 {
		opt.Shards = 1
	}
	svc, err := server.New(opt)
	if err != nil {
		return nil, err
	}
	return &Server{svc: svc, shards: opt.Shards}, nil
}

// Restored reports the warm start this server performed from its configured
// checkpoint, or nil if it started cold (no CheckpointPath, or the file did
// not exist yet). A non-nil result means ingestion and queries resume from
// exactly the checkpointed clustering: same centers, bounds and version.
func (s *Server) Restored() *ServerRestore {
	rs := s.svc.Restored()
	if rs == nil {
		return nil
	}
	out := newServerRestore(rs)
	return &out
}

// TenantRestores reports every warm start the server performed, one entry
// per tenant restored from its own checkpoint file (the default tenant
// included), default first, then by tenant name. Empty on a fully cold
// start. Tenants whose checkpoint failed to restore are quarantined — they
// refuse traffic with a typed error while every sibling serves — and do
// not appear here; the GET /v1/tenants listing names them with status
// "failed".
func (s *Server) TenantRestores() []ServerRestore {
	rs := s.svc.TenantRestores()
	out := make([]ServerRestore, len(rs))
	for i, r := range rs {
		out[i] = newServerRestore(r)
	}
	return out
}

func newServerRestore(rs *server.RestoreSummary) ServerRestore {
	return ServerRestore{
		Tenant:         rs.Tenant,
		Path:           rs.Path,
		Created:        rs.Created,
		Ingested:       rs.Ingested,
		Centers:        rs.Centers,
		Dim:            rs.Dim,
		CentersVersion: rs.CentersVersion,
	}
}

// Handler returns the service's HTTP handler (the /v1 API), ready to mount
// on any http.Server or mux.
func (s *Server) Handler() http.Handler { return s.svc.Handler() }

// Shutdown gracefully stops the service: new batches are rejected, queued
// batches are drained into the clustering, and the final merged result is
// returned — the same certified solution Finish returns for a Stream. When a
// CheckpointPath is configured, the fully drained state is checkpointed so
// the next start resumes warm. Shut the HTTP server down first so no request
// is still in flight. Call it exactly once; ctx bounds the drain. If the
// drain succeeded but the final checkpoint failed, Shutdown returns both the
// result and the error.
func (s *Server) Shutdown(ctx context.Context) (*StreamResult, error) {
	res, err := s.svc.Close(ctx)
	if res == nil {
		return nil, err
	}
	return newStreamResult(res, s.shards), err
}

// RadiusPoints evaluates the covering radius of explicit coordinate centers
// (e.g. a StreamResult's) over a materialized dataset.
func RadiusPoints(d *Dataset, centers [][]float64) (float64, error) {
	if d == nil || d.m == nil || d.m.N == 0 {
		return 0, fmt.Errorf("kcenter: empty dataset")
	}
	if len(centers) == 0 {
		return 0, fmt.Errorf("kcenter: no centers")
	}
	c, err := metric.FromPoints(centers)
	if err != nil {
		return 0, err
	}
	if c.Dim != d.m.Dim {
		return 0, fmt.Errorf("kcenter: center dimension %d, want %d", c.Dim, d.m.Dim)
	}
	return stream.Cover(d.m, c, nil), nil
}

// Radius evaluates the covering radius of an explicit center set.
func Radius(d *Dataset, centers []int) (float64, error) {
	if d == nil || d.m == nil || d.m.N == 0 {
		return 0, fmt.Errorf("kcenter: empty dataset")
	}
	if len(centers) == 0 {
		return 0, fmt.Errorf("kcenter: no centers")
	}
	for _, c := range centers {
		if c < 0 || c >= d.m.N {
			return 0, fmt.Errorf("kcenter: center index %d out of range [0,%d)", c, d.m.N)
		}
	}
	return assign.Radius(d.m, centers), nil
}

func checkArgs(d *Dataset, k int) error {
	if d == nil || d.m == nil || d.m.N == 0 {
		return fmt.Errorf("kcenter: empty dataset")
	}
	if k <= 0 {
		return fmt.Errorf("kcenter: k must be >= 1, got %d", k)
	}
	return nil
}
