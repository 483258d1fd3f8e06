// Command kcenter runs one k-center algorithm on a data set and reports the
// solution value, the simulated parallel runtime and round structure.
//
// Data can come from a CSV file (-csv, UCI-style numeric text) or from one
// of the built-in generators matching the paper's §7.3 families:
//
//	kcenter -algo mrg -dataset gau -n 100000 -kprime 25 -k 25
//	kcenter -algo eim -dataset unif -n 50000 -k 10 -phi 4
//	kcenter -algo gon -csv pokerhand.data -k 25
//
// The stream subcommand instead ingests rows incrementally — CSV rows are
// pushed into the sharded streaming summarizer as they are read, never
// materializing the dataset, so arbitrarily large (or live) feeds fit in
// O(shards·k) memory:
//
//	kcenter stream -csv pokerhand.data -k 25 -shards 8
//	kcenter stream -dataset gau -n 1000000 -k 25
//
// The serve subcommand runs the HTTP/JSON clustering service: live batched
// ingestion (POST /v1/ingest, shedding with 429 + Retry-After when the
// bounded queue stays full past -shed-after), batch nearest-center
// assignment against consistent snapshots (POST /v1/assign), and
// introspection (GET /v1/centers, GET /v1/stats, GET /v1/tenants,
// GET /v1/healthz for liveness/readiness probes). With
// -tenants N one server multiplexes up to N independent clusterings,
// routed by the X-Kcenter-Tenant header and created lazily on first
// ingest (k from X-Kcenter-K or -default-k); requests without a tenant
// header keep the single-tenant wire format exactly. With -checkpoint the
// server persists every tenant's clustering state (the default tenant in
// the named file, others under <file>.d/) and resumes them warm on the
// next boot, logging resume summaries; -checkpoint-keep N retains the
// last N checkpoints per tenant for operator rollback. With -node-id and
// -replicate-peers the server gossips every tenant's exported clustering
// state to its peers once per -replicate-interval (POST /v1/replicate,
// checksummed checkpoint frames); peers fold the states into their merged
// views and serve assign/centers against the union summary, so a follower
// serves reads with no local ingest and promotes on primary failure by
// simply continuing to serve. SIGINT/SIGTERM
// shut it down gracefully, draining queued batches, writing the final
// checkpoints and printing the final certified clustering. For resilience
// testing, -faults arms the deterministic fault-injection framework (e.g.
// -faults 'checkpoint.fsync=error;stream.shard=panic-after-100'), arming the
// rules on this process's service only; a tenant hit by an injected worker
// or shard panic degrades — serving its last good snapshot read-only —
// instead of taking the process down. Telemetry is on by default
// (-telemetry=false disarms it to one nil check per probe):
// GET /metrics serves Prometheus text exposition with per-tenant and
// aggregate latency histograms, -pprof mounts net/http/pprof under
// /debug/pprof/, -slow-request 250ms logs a per-stage breakdown of any
// slower request, and -log-format json|text picks the structured log
// encoding. On startup the effective config is logged once as a
// self-describing "serve config" line:
//
//	kcenter serve -addr :8080 -k 25 -shards 8
//	kcenter serve -addr :8080 -k 25 -checkpoint /var/lib/kcenter/serve.ckpt
//	kcenter serve -addr :8080 -k 25 -tenants 64 -default-k 10 -checkpoint-keep 3
//	kcenter serve -addr 127.0.0.1:0 -k 10 -max-batch 1024 -read-timeout 5s
//	kcenter serve -addr :8080 -k 25 -node-id a -replicate-peers http://10.0.0.2:8080
//	kcenter serve -addr :8080 -k 25 -pprof -slow-request 250ms -log-format json
//
// Exit status is non-zero on any configuration or runtime error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kcenter/internal/core"
	"kcenter/internal/dataset"
	"kcenter/internal/eim"
	"kcenter/internal/fault"
	"kcenter/internal/mapreduce"
	"kcenter/internal/metric"
	"kcenter/internal/mrg"
	"kcenter/internal/obs"
	"kcenter/internal/server"
	"kcenter/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "kcenter:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer, stop <-chan os.Signal) error {
	if len(args) > 0 && args[0] == "stream" {
		return runStream(args[1:], out)
	}
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], out, stop)
	}
	fs := flag.NewFlagSet("kcenter", flag.ContinueOnError)
	var (
		algo     = fs.String("algo", "mrg", "algorithm: gon | mrg | eim")
		k        = fs.Int("k", 10, "number of centers")
		n        = fs.Int("n", 100000, "points for generated data sets")
		dsName   = fs.String("dataset", "unif", "generator: unif | gau | unb | poker | kdd")
		kPrime   = fs.Int("kprime", 25, "inherent clusters for gau/unb")
		csvPath  = fs.String("csv", "", "load points from a CSV file instead of generating")
		machines = fs.Int("m", 50, "simulated MapReduce machines")
		phi      = fs.Float64("phi", 8, "EIM pivot parameter φ")
		eps      = fs.Float64("eps", 0.1, "EIM sampling exponent ε")
		seed     = fs.Uint64("seed", 1, "random seed")
		verbose  = fs.Bool("v", false, "print per-round statistics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, name, err := loadData(*csvPath, *dsName, *n, *kPrime, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "data: %s (n=%d, dim=%d)   k=%d   m=%d\n", name, ds.N, ds.Dim, *k, *machines)

	switch *algo {
	case "gon":
		start := time.Now()
		res := core.Gonzalez(ds, *k, core.Options{First: 0})
		elapsed := time.Since(start)
		fmt.Fprintf(out, "GON   value=%.6g   wall=%v   distance-evals=%d\n",
			res.Radius, elapsed, res.DistEvals)
	case "mrg":
		res, err := mrg.Run(ds, mrg.Config{
			K:       *k,
			Cluster: mapreduce.Config{Machines: *machines},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "MRG   value=%.6g   simulated-wall=%v   rounds=%d   approx=%g\n",
			res.Radius, res.Stats.SimulatedWall(), res.MapReduceRounds, res.ApproxFactor)
		if *verbose {
			printRounds(out, res.Stats)
		}
	case "eim":
		res, err := eim.Run(ds, eim.Config{
			K:       *k,
			Phi:     *phi,
			Epsilon: *eps,
			Cluster: mapreduce.Config{Machines: *machines},
			Seed:    *seed,
		})
		if err != nil {
			return err
		}
		mode := "sampling"
		if res.FellBack {
			mode = "fallback-to-GON"
		}
		fmt.Fprintf(out, "EIM   value=%.6g   simulated-wall=%v   rounds=%d   iterations=%d   sample=%d   mode=%s\n",
			res.Radius, res.Stats.SimulatedWall(), res.MapReduceRounds, res.Iterations,
			res.SampleSize, mode)
		if *verbose {
			printRounds(out, res.Stats)
			for i, it := range res.PerIteration {
				fmt.Fprintf(out, "  iter %d: |R| %d -> %d, sampled %d, |H| %d, pivot-dist %.6g\n",
					i+1, it.RBefore, it.RAfter, it.Sampled, it.HSize, it.PivotDist)
			}
		}
	default:
		return fmt.Errorf("unknown algorithm %q (want gon, mrg or eim)", *algo)
	}
	return nil
}

// runServe implements the serve subcommand: the HTTP clustering service
// with graceful signal-driven shutdown. It blocks until a signal arrives on
// stop (or the listener fails), then drains in-flight batches and prints
// the final certified clustering. A nil stop subscribes to SIGINT/SIGTERM
// here — only the serve subcommand takes over signal handling; batch and
// stream runs keep the default terminate-on-Ctrl-C behavior.
func runServe(args []string, out io.Writer, stop <-chan os.Signal) error {
	if stop == nil {
		c := make(chan os.Signal, 1)
		signal.Notify(c, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(c)
		stop = c
	}
	fs := flag.NewFlagSet("kcenter serve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		k            = fs.Int("k", 10, "number of centers")
		shards       = fs.Int("shards", 1, "concurrent ingestion shards")
		buffer       = fs.Int("buffer", 0, "per-shard channel depth (0 = default)")
		maxBatch     = fs.Int("max-batch", 0, "max points per request (0 = 4096)")
		queueDepth   = fs.Int("queue", 0, "ingest queue depth in batches (0 = 64)")
		shedAfter    = fs.Duration("shed-after", 0, "patience at a full ingest queue before shedding with 429 (0 = 1s, negative = block)")
		ckptPath     = fs.String("checkpoint", "", "checkpoint file: restore on boot, persist periodically and on shutdown")
		ckptInterval = fs.Duration("checkpoint-interval", 0, "background checkpoint period (0 = 15s; writes only on center changes)")
		ckptKeep     = fs.Int("checkpoint-keep", 0, "keep the last N checkpoints per tenant as <path>.1..N for rollback (0 = none)")
		tenants      = fs.Int("tenants", 0, "max tenants for multi-tenant serving; 0 = single-tenant mode")
		defaultK     = fs.Int("default-k", 0, "centers for lazily created tenants without an X-Kcenter-K header (0 = -k)")
		nodeID       = fs.String("node-id", "", "this node's origin label in replication gossip (required with -replicate-peers)")
		replPeers    = fs.String("replicate-peers", "", "comma-separated peer base URLs to push clustering state to, e.g. http://10.0.0.2:8080,http://10.0.0.3:8080")
		replInterval = fs.Duration("replicate-interval", 0, "replication push period (0 = 2s); bounds follower staleness on a healthy link")
		telemetry    = fs.Bool("telemetry", true, "arm latency telemetry: /metrics exposition and /v1/stats latency fields")
		pprofFlag    = fs.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
		slowReq      = fs.Duration("slow-request", 0, "log requests at or above this latency with a per-stage breakdown (0 = off; needs -telemetry)")
		logFormat    = fs.String("log-format", "text", "structured log encoding: text | json")
		faults       = fs.String("faults", "", "arm deterministic fault injection, e.g. 'checkpoint.fsync=error;stream.shard=panic-after-100' (testing only)")
		readTimeout  = fs.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
		writeTimeout = fs.Duration("write-timeout", 30*time.Second, "HTTP write timeout (bounds ingest queue waits)")
		drainTimeout = fs.Duration("drain-timeout", time.Minute, "shutdown budget for draining queued batches")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	format, err := obs.ParseFormat(*logFormat)
	if err != nil {
		return err
	}
	// The serve process's structured logs (degrade, checkpoint transitions,
	// contained panics, slow requests) go where the operator output goes.
	obs.SetDefault(obs.NewLogger(out, format, obs.LevelInfo))
	cfg := server.Config{
		K:                  *k,
		Shards:             *shards,
		Buffer:             *buffer,
		MaxBatch:           *maxBatch,
		QueueDepth:         *queueDepth,
		ShedAfter:          *shedAfter,
		CheckpointPath:     *ckptPath,
		CheckpointInterval: *ckptInterval,
		CheckpointKeep:     *ckptKeep,
		MaxTenants:         *tenants,
		DefaultK:           *defaultK,
		NodeID:             *nodeID,
		ReplicatePeers:     splitPeers(*replPeers),
		ReplicateInterval:  *replInterval,
		Telemetry:          *telemetry,
		Pprof:              *pprofFlag,
		SlowRequest:        *slowReq,
	}
	if *faults != "" {
		rules, err := fault.ParseSpec(*faults)
		if err != nil {
			return err
		}
		cfg.Faults = new(fault.Set)
		if err := cfg.Faults.Arm(rules); err != nil {
			return err
		}
		fmt.Fprintf(out, "FAULT INJECTION ARMED: %s (testing only — failures below are deliberate)\n", *faults)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	for _, rs := range srv.TenantRestores() {
		tenant := ""
		if rs.Tenant != server.DefaultTenant {
			tenant = "tenant " + rs.Tenant + " "
		}
		fmt.Fprintf(out, "%sresumed from checkpoint %s: centers=%d ingested=%d dim=%d version=%d age=%v\n",
			tenant, rs.Path, rs.Centers, rs.Ingested, rs.Dim, rs.CentersVersion,
			time.Since(rs.Created).Round(time.Second))
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:      srv.Handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}
	fmt.Fprintf(out, "serving on http://%s   k=%d   shards=%d\n", ln.Addr(), *k, *shards)
	// One self-describing banner with the full effective config (defaults
	// resolved), so an operator report or log capture names every knob the
	// process actually runs with.
	effMaxBatch := *maxBatch
	if effMaxBatch <= 0 {
		effMaxBatch = 4096
	}
	effQueue := *queueDepth
	if effQueue <= 0 {
		effQueue = 64
	}
	effShed := *shedAfter
	if effShed == 0 {
		effShed = time.Second
	}
	effCkptInterval := *ckptInterval
	if effCkptInterval <= 0 {
		effCkptInterval = 15 * time.Second
	}
	effDefaultK := *defaultK
	if effDefaultK <= 0 {
		effDefaultK = *k
	}
	effReplInterval := *replInterval
	if effReplInterval <= 0 {
		effReplInterval = 2 * time.Second
	}
	obs.Default().Info("serve config",
		"addr", ln.Addr().String(),
		"k", *k,
		"shards", *shards,
		"buffer", *buffer,
		"max_batch", effMaxBatch,
		"queue", effQueue,
		"shed_after", effShed,
		"checkpoint", *ckptPath,
		"checkpoint_interval", effCkptInterval,
		"checkpoint_keep", *ckptKeep,
		"tenants", *tenants,
		"default_k", effDefaultK,
		"node_id", *nodeID,
		"replicate_peers", *replPeers,
		"replicate_interval", effReplInterval,
		"telemetry", *telemetry,
		"pprof", *pprofFlag,
		"slow_request", *slowReq,
		"log_format", *logFormat,
		"faults_armed", *faults != "",
	)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-stop:
	}
	fmt.Fprintln(out, "shutting down: draining in-flight batches")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	res, err := srv.Close(ctx)
	if errors.Is(err, stream.ErrEmpty) {
		fmt.Fprintln(out, "final clustering: none (nothing ingested)")
		return nil
	}
	if err != nil && res == nil {
		// A real drain failure (e.g. the timeout expired with batches still
		// queued) must not masquerade as an empty server: queued data was
		// lost, so report it and exit non-zero.
		return err
	}
	factor := 8 // one shard: the streaming 8-approximation; sharded: 10
	if *shards > 1 {
		factor = 10
	}
	fmt.Fprintf(out, "FINAL   bound=%.6g   lower-bound=%.6g   centers=%d   ingested=%d   (%d-approximation)\n",
		res.Bound, res.LowerBound, res.Centers.N, res.Ingested, factor)
	// A non-nil res with a non-nil error means the clustering drained fine
	// but the final checkpoint write failed: report it and exit non-zero so
	// operators notice the stale checkpoint.
	return err
}

// splitPeers parses the comma-separated -replicate-peers value, dropping
// empty entries so a trailing comma is harmless.
func splitPeers(spec string) []string {
	var peers []string
	for _, p := range strings.Split(spec, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// runStream implements the stream subcommand: incremental ingestion into a
// sharded streaming summarizer.
func runStream(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kcenter stream", flag.ContinueOnError)
	var (
		k       = fs.Int("k", 10, "number of centers")
		shards  = fs.Int("shards", 1, "concurrent shard goroutines")
		buffer  = fs.Int("buffer", 0, "per-shard channel depth (0 = default)")
		csvPath = fs.String("csv", "", "read CSV rows incrementally from a file ('-' for stdin)")
		dsName  = fs.String("dataset", "unif", "generator when no -csv: unif | gau | unb | poker | kdd")
		n       = fs.Int("n", 100000, "points for generated data sets")
		kPrime  = fs.Int("kprime", 25, "inherent clusters for gau/unb")
		seed    = fs.Uint64("seed", 1, "random seed for generated data sets")
		verbose = fs.Bool("v", false, "print per-shard statistics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards <= 0 {
		*shards = 1
	}
	sh, err := stream.NewSharded(stream.ShardedConfig{K: *k, Shards: *shards, Buffer: *buffer})
	if err != nil {
		return err
	}
	start := time.Now()
	var pushed int64
	if *csvPath != "" {
		r := io.Reader(os.Stdin)
		name := "stdin"
		if *csvPath != "-" {
			f, err := os.Open(*csvPath)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
			name = *csvPath
		}
		fmt.Fprintf(out, "streaming %s   k=%d   shards=%d\n", name, *k, *shards)
		pushed, err = pushCSV(r, sh)
		if err != nil {
			return err
		}
	} else {
		// Generated feeds are materialized by the generator but pushed row
		// by row, exercising the same ingestion path as a live source.
		ds, name, err := loadData("", *dsName, *n, *kPrime, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "streaming %s (n=%d, dim=%d)   k=%d   shards=%d\n", name, ds.N, ds.Dim, *k, *shards)
		for i := 0; i < ds.N; i++ {
			if err := sh.Push(ds.At(i)); err != nil {
				return err
			}
			pushed++
		}
	}
	res, err := sh.Finish()
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "STREAM   bound=%.6g   lower-bound=%.6g   centers=%d   union=%d   ingested=%d   wall=%v   (%.3g pts/s)\n",
		res.Bound, res.LowerBound, res.Centers.N, res.UnionSize, res.Ingested,
		elapsed.Round(time.Millisecond), float64(pushed)/elapsed.Seconds())
	if *verbose {
		for i, st := range res.PerShard {
			fmt.Fprintf(out, "  shard %-3d ingested=%-9d centers=%-4d r=%-12.6g doublings=%d\n",
				i, st.Ingested, st.Centers, st.R, st.Merges)
		}
	}
	return nil
}

// pushCSV reads UCI-style comma-separated text row by row and pushes each
// row into sh without materializing the matrix. Column handling (numeric
// autodetection from the first data row) is shared with dataset.LoadCSV via
// ForEachCSVRow; Push copies each row, satisfying the iterator's reuse
// contract.
func pushCSV(r io.Reader, sh *stream.Sharded) (int64, error) {
	return dataset.ForEachCSVRow(r, dataset.LoadCSVOptions{}, sh.Push)
}

func loadData(csvPath, dsName string, n, kPrime int, seed uint64) (*metric.Dataset, string, error) {
	if csvPath != "" {
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		ds, err := dataset.LoadCSV(f, dataset.LoadCSVOptions{})
		if err != nil {
			return nil, "", err
		}
		return ds, csvPath, nil
	}
	switch dsName {
	case "unif":
		l := dataset.Unif(dataset.UnifConfig{N: n, Seed: seed})
		return l.Points, l.Name, nil
	case "gau":
		l := dataset.Gau(dataset.GauConfig{N: n, KPrime: kPrime, Seed: seed})
		return l.Points, l.Name, nil
	case "unb":
		l := dataset.Unb(dataset.GauConfig{N: n, KPrime: kPrime, Seed: seed})
		return l.Points, l.Name, nil
	case "poker":
		l := dataset.PokerLike(seed)
		return l.Points, l.Name, nil
	case "kdd":
		l := dataset.KDDLike(dataset.KDDLikeConfig{N: n, Seed: seed})
		return l.Points, l.Name, nil
	default:
		return nil, "", fmt.Errorf("unknown dataset %q (want unif, gau, unb, poker or kdd)", dsName)
	}
}

func printRounds(out io.Writer, stats *mapreduce.JobStats) {
	for _, r := range stats.Rounds {
		fmt.Fprintf(out, "  round %-16s machines=%-4d max-wall=%-14v max-ops=%d\n",
			r.Name, r.Tasks, r.MaxWall, r.MaxOps)
	}
}
