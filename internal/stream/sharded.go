// Sharded ingestion: s goroutine-owned Summary shards fed over channels,
// merged on Finish by a Gonzalez pass over the union of shard centers —
// the streaming analogue of MRG's partition/recluster rounds.

package stream

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"kcenter/internal/core"
	"kcenter/internal/fault"
	"kcenter/internal/metric"
	"kcenter/internal/obs"
)

// ErrEmpty reports a Snapshot or Finish on a stream that has ingested
// nothing; callers distinguish it (errors.Is) from real failures.
var ErrEmpty = errors.New("empty stream")

// ErrShardFailed reports that a shard goroutine panicked while summarizing.
// The panic is contained — producers keep running, later messages are
// drained and counted in DroppedPoints so nothing blocks — but the shard
// summaries can no longer be trusted, so Snapshot and Finish refuse with an
// error wrapping this (and the panic value) instead of serving a possibly
// half-updated clustering. Detect with errors.Is.
var ErrShardFailed = errors.New("shard worker failed")

// ShardedConfig parameterizes a Sharded ingester.
type ShardedConfig struct {
	// K is the number of centers each shard maintains and the final merge
	// returns.
	K int
	// Shards is the number of independent shard goroutines; 0 means 1.
	Shards int
	// Buffer is the per-shard channel depth in messages (a message is one
	// Push point or one PushBatch stripe); 0 means 256. Deeper buffers
	// decouple producers from shard goroutines at the cost of memory.
	Buffer int
	// Metric configures every shard Summary and the final merge; nil means
	// Euclidean.
	Metric metric.Interface
	// Origin labels this ingester's own summaries in the merged union when
	// remote states are folded in with MergeState: contributing sources are
	// ordered by origin label (shards in index order within a source), so
	// two peers holding the same set of states build byte-identical merged
	// centers regardless of which summaries are local to each. Empty (the
	// default, fine for single-node use) sorts before any remote origin,
	// preserving the historical local-shards-first order.
	Origin string
	// Obs, when non-nil, receives shard-side telemetry: how long each
	// message dwelt in its shard channel (the ingest pipeline's internal
	// queue wait) and burst-drain occupancy counters. nil records nothing
	// and costs one branch per message.
	Obs *obs.StreamMetrics
	// Faults is the fault-injection switchboard the shard goroutines hit
	// (fault.StreamShard) as they consume each message; nil — the
	// production state — never fires.
	Faults *fault.Set
}

// ShardStats reports one shard's final state.
type ShardStats struct {
	// Ingested is the number of points the shard consumed.
	Ingested int64
	// Centers is the retained center count (≤ k).
	Centers int
	// R is the shard's final doubling radius.
	R float64
	// Merges is the number of doubling rounds the shard executed.
	Merges int
}

// Result is the outcome of a finished sharded stream.
type Result struct {
	// Centers holds the ≤ k final center coordinates. Every row is a
	// genuine input point (shards retain only pushed points and the merge
	// selects among them).
	Centers *metric.Dataset
	// Bound is the certified coverage radius: every ingested point lies
	// within Bound of a row of Centers. It is MergeRadius plus the worst
	// shard's 4r, and is at most 10·OPT (8·OPT with one shard, where
	// MergeRadius is 0).
	Bound float64
	// LowerBound is a certified lower bound on the optimal radius: the
	// largest r/2 over shards (shard sub-streams are subsets of the input,
	// and OPT over a subset never exceeds OPT over the whole).
	LowerBound float64
	// MergeRadius is the Gonzalez covering radius over the union of shard
	// centers (0 when the union already fits in k centers).
	MergeRadius float64
	// UnionSize is the number of shard centers the merge reclustered (≤ s·k).
	UnionSize int
	// Ingested is the total number of points pushed, including points the
	// folded remote states report (their exporters pushed them; this node
	// merely merged the summaries).
	Ingested int64
	// Remotes is the number of remote origins whose states were folded into
	// this view via MergeState (0 for a purely local merge).
	Remotes int
	// PerShard reports each local shard's final state, indexed by shard.
	PerShard []ShardStats
}

// shardMsg is one channel message to a shard goroutine: a contiguous slab
// of dim-strided rows (possibly a single point). Delivering coordinates as
// a flat slab instead of a [][]float64 batch removes the per-row slice
// headers from every send — the message itself is passed by value — and
// lets the slab return to a pool once the shard has summarized it (the
// Summary copies what it retains).
type shardMsg struct {
	slab []float64
	dim  int
	// sent is the producer's send timestamp (UnixNano), set only when the
	// ingester has an Obs sink; 0 means "not measured".
	// The consuming shard observes now-sent as the message's channel dwell.
	sent int64
}

// Sharded fans an insertion-only point stream out across goroutine-owned
// Summary shards. Push is safe for concurrent use by multiple producers;
// Finish must be called exactly once, after every producer has returned
// (callers join their producer goroutines first, as with closing any
// channel).
type Sharded struct {
	cfg ShardedConfig
	// chans carry coordinate slabs to the shard goroutines; one message
	// per shard per PushBatch keeps the channel and scheduler traffic per
	// point O(1/batch).
	chans []chan shardMsg
	// slabs recycles message slabs: a producer takes a slab, the consuming
	// shard goroutine returns it after summarizing, so steady-state ingest
	// allocates nothing per send.
	slabs     sync.Pool
	summaries []*Summary
	// sumLocks[i] guards summaries[i]: the shard goroutine holds the write
	// side around each Push, Snapshot holds the read side while reading a
	// shard's state. Finish needs no locking (all shard goroutines have
	// exited by the time it reads).
	sumLocks []sync.RWMutex
	wg       sync.WaitGroup
	next     atomic.Uint64
	dim      atomic.Int64 // first-seen dimensionality; 0 = not yet set
	finished atomic.Bool
	// failure records the first shard panic (contained by the shard
	// goroutines; see ErrShardFailed). Once set, every shard switches to
	// draining and discarding its messages — counted in dropped — so
	// producers never block on a dead consumer.
	failure atomic.Pointer[shardFailure]
	dropped atomic.Int64 // points discarded after a shard failure
	// mu makes the finished check and the channel send atomic with respect
	// to Finish closing the channels: a Push racing Finish (a contract
	// violation, but an easy one) gets the "Push after Finish" error
	// instead of a send-on-closed-channel panic. Pushes hold the read side,
	// so the common path stays concurrent.
	mu sync.RWMutex
	// remMu guards remotes: one retained ShardedState per remote origin,
	// folded into every merge (see MergeState in merge.go). Stored states
	// are immutable once in the map, so readers share the pointers.
	remMu   sync.RWMutex
	remotes map[string]*ShardedState
	// remVer counts accepted remote folds; CentersVersion + remVer is the
	// merged view's invalidation key (see MergedVersion).
	remVer atomic.Uint64
}

// NewSharded starts the shard goroutines and returns the ingester.
func NewSharded(cfg ShardedConfig) (*Sharded, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("stream: k must be >= 1, got %d", cfg.K)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	sh := &Sharded{
		cfg:       cfg,
		chans:     make([]chan shardMsg, cfg.Shards),
		summaries: make([]*Summary, cfg.Shards),
		sumLocks:  make([]sync.RWMutex, cfg.Shards),
	}
	for i := range sh.chans {
		sh.chans[i] = make(chan shardMsg, cfg.Buffer)
		sh.summaries[i] = NewSummary(cfg.K, Options{Metric: cfg.Metric})
		sh.wg.Add(1)
		go func(i int) {
			defer sh.wg.Done()
			ch := sh.chans[i]
			for msg := range ch {
				if sh.failure.Load() != nil {
					// Some shard already panicked: the clustering is
					// suspect, so drain and discard (counted) instead of
					// summarizing — producers keep their channel sends and
					// Finish its close-then-wait semantics either way.
					sh.discard(msg)
					continue
				}
				sh.consumeBurst(i, msg)
			}
		}(i)
	}
	return sh, nil
}

// shardFailure is the recorded cause of a contained shard panic.
type shardFailure struct {
	shard int
	err   error
}

// consumeBurst summarizes one received message plus whatever is already
// buffered, all under one lock acquisition (bounded, so Snapshot readers
// wait at most a few tens of µs): per-point producers pay one lock per
// drained burst instead of one per point. A panic anywhere in the
// summarizing — an organic bug or an injected fault — is contained here: the
// first one records the failure (before the lock is released, so no capture
// can read the half-updated summary without seeing it), counts the in-flight
// message as dropped, and flips the whole ingester to drain-and-discard.
func (s *Sharded) consumeBurst(shard int, msg shardMsg) {
	ch, lock := s.chans[shard], &s.sumLocks[shard]
	cur := msg
	drained := 1
	if s.cfg.Obs != nil {
		// One burst-drain round: its message count over Bursts is the mean
		// burst occupancy (1 = no batching benefit, maxDrain under backlog).
		defer func() {
			s.cfg.Obs.Bursts.Add(1)
			s.cfg.Obs.BurstMessages.Add(int64(drained))
		}()
	}
	lock.Lock()
	defer lock.Unlock()
	defer func() {
		if v := recover(); v != nil {
			// The message being summarized is counted dropped in full even
			// if some of its rows landed: the accounting identity is
			// "ingested ≤ summarized + dropped" — a conservative overcount,
			// never a silent loss. (Injected faults fire before the first
			// row, so for them the identity is exact.)
			if cur.dim > 0 {
				s.dropped.Add(int64(len(cur.slab) / cur.dim))
			}
			s.failure.CompareAndSwap(nil, &shardFailure{
				shard: shard,
				err:   fmt.Errorf("stream: %w: shard %d panicked: %v", ErrShardFailed, shard, v),
			})
		}
	}()
	// The summary is re-read under the lock: RestoreState swaps it while
	// holding the write side.
	sum := s.summaries[shard]
	s.consume(sum, cur)
	const maxDrain = 64
	for burst := 1; burst < maxDrain; burst++ {
		select {
		case more, ok := <-ch:
			if !ok {
				return
			}
			cur = more
			drained++
			s.consume(sum, more)
		default:
			return
		}
	}
}

// consume summarizes one message's rows into sum (caller holds the shard
// lock) and recycles the slab.
func (s *Sharded) consume(sum *Summary, msg shardMsg) {
	if msg.sent != 0 && s.cfg.Obs != nil {
		// Producer stamped the send: observe the channel dwell — the time
		// this slab waited for its shard goroutine.
		s.cfg.Obs.Dwell.Observe(time.Duration(time.Now().UnixNano() - msg.sent))
	}
	// Injection point for chaos testing: an armed error or panic rule
	// panics here (the consume path has no error channel), exercising the
	// same containment as an organic Summary.Push panic; a delay rule
	// wedges the shard instead. With no Faults set this is one nil check.
	if err := s.cfg.Faults.Hit(fault.StreamShard); err != nil {
		panic(err)
	}
	for off := 0; off < len(msg.slab); off += msg.dim {
		sum.Push(msg.slab[off : off+msg.dim])
	}
	s.putSlab(msg.slab)
}

// discard drops one undeliverable message after a shard failure, counting
// its points and recycling the slab.
func (s *Sharded) discard(msg shardMsg) {
	if msg.dim > 0 {
		s.dropped.Add(int64(len(msg.slab) / msg.dim))
	}
	s.putSlab(msg.slab)
}

// Failed returns the contained shard-panic error (wrapping ErrShardFailed
// and the panic value), or nil while every shard is healthy. Once non-nil it
// never reverts; callers treat the ingester as read-only-at-best.
func (s *Sharded) Failed() error {
	if f := s.failure.Load(); f != nil {
		return f.err
	}
	return nil
}

// DroppedPoints returns how many points were discarded after a shard
// failure: rows of the message a panicking shard was summarizing, plus every
// row routed to any shard afterwards. 0 while healthy.
func (s *Sharded) DroppedPoints() int64 { return s.dropped.Load() }

// getSlab returns a pooled slab with length n, allocating only when the
// pool is empty or its slab is too small.
func (s *Sharded) getSlab(n int) []float64 {
	if v := s.slabs.Get(); v != nil {
		slab := *(v.(*[]float64))
		if cap(slab) >= n {
			return slab[:n]
		}
	}
	return make([]float64, n)
}

// putSlab recycles a processed message slab.
func (s *Sharded) putSlab(slab []float64) {
	s.slabs.Put(&slab)
}

// sendStamp returns the timestamp outgoing messages should carry: UnixNano
// when this ingester has an Obs sink, 0 (no clock read) otherwise.
func (s *Sharded) sendStamp() int64 {
	if s.cfg.Obs == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// CentersVersion returns the sum of the shard summaries' center-set version
// counters, each read under that shard's read lock. The sum is monotone and
// increases exactly when some shard's retained centers change, so a caller
// holding a Snapshot taken at version v knows the clustering is unchanged
// while CentersVersion still returns v — the invalidation key for the
// serving layer's snapshot cache. Points still buffered in shard channels
// are not reflected until their shard consumes them.
func (s *Sharded) CentersVersion() uint64 {
	var v uint64
	for i := range s.summaries {
		s.sumLocks[i].RLock()
		v += s.summaries[i].Version()
		s.sumLocks[i].RUnlock()
	}
	return v
}

// PerShardStats reads each shard's live counters (ingested count, retained
// centers, doubling radius and level) under its read lock, without the
// merge Snapshot performs — cheap enough for a stats endpoint to call on
// every request. Points still buffered in shard channels are not counted.
func (s *Sharded) PerShardStats() []ShardStats {
	out := make([]ShardStats, len(s.summaries))
	for i, sum := range s.summaries {
		s.sumLocks[i].RLock()
		out[i] = ShardStats{
			Ingested: sum.N(),
			Centers:  sum.Count(),
			R:        sum.R(),
			Merges:   sum.Merges(),
		}
		s.sumLocks[i].RUnlock()
	}
	return out
}

// Snapshot reads the current clustering without stopping ingestion: the
// union of the shard center sets (each read under that shard's read lock),
// plus the centers of any remote states folded in with MergeState,
// reclustered to ≤ k centers with a Gonzalez pass when the union overflows
// — exactly the Finish merge, minus the drain. It serves live queries
// mid-stream; points still buffered in shard channels are not yet
// reflected, and each shard is locked briefly in turn, so the view is
// consistent per shard but only approximately aligned across shards. It
// returns an error when no point has been ingested yet, and the contained
// shard-panic error (see ErrShardFailed) when a shard has failed — the
// summaries may be half-updated, so no new view is built over them.
func (s *Sharded) Snapshot() (*Result, error) {
	if err := s.Failed(); err != nil {
		return nil, err
	}
	return s.mergeShards(true, "Snapshot of")
}

// mergeShards builds a Result from the shard summaries: per-shard stats,
// the union of shard centers — local shards plus any remote states folded in
// with MergeState, assembled in sorted-origin order so every peer holding
// the same states builds the same union — and the Gonzalez recluster +
// certified bound when the union exceeds k. It is the single merge
// implementation behind Finish (locked=false: every shard goroutine has
// exited) and Snapshot (locked=true: each shard is read under its lock while
// ingestion runs).
func (s *Sharded) mergeShards(locked bool, op string) (*Result, error) {
	res := &Result{PerShard: make([]ShardStats, len(s.summaries))}
	local := make([]*metric.Dataset, len(s.summaries))
	var worstShardBound float64
	for i, sum := range s.summaries {
		if locked {
			s.sumLocks[i].RLock()
		}
		res.PerShard[i] = ShardStats{
			Ingested: sum.N(),
			Centers:  sum.Count(),
			R:        sum.R(),
			Merges:   sum.Merges(),
		}
		bound, lower := sum.Bound(), sum.LowerBound()
		local[i] = sum.Centers() // deep copy; safe to use after unlock
		if locked {
			s.sumLocks[i].RUnlock()
		}
		res.Ingested += res.PerShard[i].Ingested
		if bound > worstShardBound {
			worstShardBound = bound
		}
		if lower > res.LowerBound {
			res.LowerBound = lower
		}
	}
	remotes := s.remoteSources()
	res.Remotes = len(remotes)
	for _, r := range remotes {
		res.Ingested += r.st.Ingested()
		for i := range r.st.Shards {
			sh := &r.st.Shards[i]
			if b := 4 * sh.R; b > worstShardBound {
				worstShardBound = b
			}
			if lb := sh.R / 2; lb > res.LowerBound {
				res.LowerBound = lb
			}
		}
	}
	// Assemble the union in deterministic source order: contributing sources
	// (the local summaries under cfg.Origin, each remote state under its
	// origin) sorted by origin label, shards in index order within a source.
	var union *metric.Dataset
	add := func(who string, shard int, row []float64) error {
		if union == nil {
			union = metric.NewDataset(0, len(row))
		}
		if len(row) != union.Dim {
			return fmt.Errorf("stream: %s %d dimension %d, want %d", who, shard, len(row), union.Dim)
		}
		union.Append(row)
		return nil
	}
	appendLocal := func() error {
		for i, centers := range local {
			if centers == nil {
				continue
			}
			for j := 0; j < centers.N; j++ {
				if err := add("shard", i, centers.At(j)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	localDone := false
	for _, r := range remotes {
		if !localDone && s.cfg.Origin < r.origin {
			if err := appendLocal(); err != nil {
				return nil, err
			}
			localDone = true
		}
		for i := range r.st.Shards {
			for _, row := range r.st.Shards[i].Centers {
				if err := add(fmt.Sprintf("remote %q shard", r.origin), i, row); err != nil {
					return nil, err
				}
			}
		}
	}
	if !localDone {
		if err := appendLocal(); err != nil {
			return nil, err
		}
	}
	if union == nil || union.N == 0 {
		return nil, fmt.Errorf("stream: %s %w", op, ErrEmpty)
	}
	res.UnionSize = union.N
	if union.N <= s.cfg.K {
		// The union already fits: no recluster round needed (always the
		// case with a single shard).
		res.Centers = union
		res.Bound = worstShardBound
		return res, nil
	}
	// The union holds at most k centers per contributing shard, local or
	// remote, so the recluster is one sequential traversal of a small
	// input.
	g := core.Gonzalez(union, s.cfg.K, core.Options{First: 0})
	if s.cfg.Metric != nil {
		// core.Gonzalez selects under Euclidean; re-evaluate the covering
		// radius of its picks under the configured metric so Bound stays a
		// certificate (the selection itself remains a heuristic for
		// non-Euclidean metrics).
		res.MergeRadius = Cover(union, union.Subset(g.Centers), s.cfg.Metric)
	} else {
		res.MergeRadius = g.Radius
	}
	res.Centers = union.Subset(g.Centers)
	res.Bound = res.MergeRadius + worstShardBound
	return res, nil
}

// Push routes one point to a shard round-robin. The coordinates are copied,
// so the caller may reuse p. A point with a NaN or ±Inf coordinate is
// rejected before it can pin the stream's dimension. With a single producer the routing — and hence
// the final result — is deterministic for a fixed shard count.
func (s *Sharded) Push(p []float64) error {
	if len(p) == 0 {
		return fmt.Errorf("stream: empty point")
	}
	if c := nonFinite(p); c >= 0 {
		return fmt.Errorf("stream: point %v has non-finite coordinate %d", p, c)
	}
	d := int64(len(p))
	if !s.dim.CompareAndSwap(0, d) {
		if got := s.dim.Load(); got != d {
			return fmt.Errorf("stream: point dimension %d, want %d", d, got)
		}
	}
	slab := s.getSlab(len(p))
	copy(slab, p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.finished.Load() {
		s.putSlab(slab)
		return fmt.Errorf("stream: Push after Finish")
	}
	i := s.next.Add(1) - 1
	s.chans[i%uint64(len(s.chans))] <- shardMsg{slab: slab, dim: len(p), sent: s.sendStamp()}
	return nil
}

// nonFinite returns the index of p's first NaN or ±Inf coordinate, or -1.
// Such a point has no distance to anything, so ingestion rejects it.
func nonFinite(p []float64) int {
	for i, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// PushBatch routes a batch of points exactly as len(points) sequential
// Push calls would — point j lands on shard (cursor+j) mod shards, in
// order, so the resulting clustering is bit-identical — but pays O(shards)
// channel sends instead of O(len(points)): each shard's stripe is gathered
// into one contiguous slab (drawn from the recycle pool, so steady-state
// ingest allocates nothing per send) and delivered as a single message.
// This is the serving layer's ingest path; at batch sizes in the hundreds
// it cuts the allocation and scheduler traffic per point by two orders of
// magnitude, which on small hosts is the difference between GC pauses a
// co-tenant can feel and ones it cannot. The whole batch is validated
// before any point is routed, so an error means nothing was ingested. Safe
// for concurrent use alongside Push.
func (s *Sharded) PushBatch(points [][]float64) error {
	if len(points) == 0 {
		return nil
	}
	d := int64(len(points[0]))
	if d == 0 {
		return fmt.Errorf("stream: empty point")
	}
	for j, p := range points {
		if int64(len(p)) != d {
			return fmt.Errorf("stream: point dimension %d, want %d in one batch", len(p), d)
		}
		if c := nonFinite(p); c >= 0 {
			return fmt.Errorf("stream: point %d %v has non-finite coordinate %d", j, p, c)
		}
	}
	if !s.dim.CompareAndSwap(0, d) {
		if got := s.dim.Load(); got != d {
			return fmt.Errorf("stream: point dimension %d, want %d", d, got)
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.finished.Load() {
		return fmt.Errorf("stream: Push after Finish")
	}
	m := uint64(len(points))
	base := s.next.Add(m) - m
	nsh := uint64(len(s.chans))
	dim := int(d)
	sent := s.sendStamp()
	for sh := uint64(0); sh < nsh; sh++ {
		// This shard's stripe starts at the first j with (base+j)≡sh and
		// advances by the shard count, preserving sequential-Push order;
		// the stripe size follows arithmetically, so no per-call count
		// pass or array is needed.
		first := (sh - base%nsh + nsh) % nsh
		if first >= m {
			continue
		}
		c := int((m - first + nsh - 1) / nsh)
		slab := s.getSlab(c * dim)
		off := 0
		for j := first; j < m; j += nsh {
			copy(slab[off:off+dim], points[j])
			off += dim
		}
		s.chans[sh] <- shardMsg{slab: slab, dim: dim, sent: sent}
	}
	return nil
}

// Finish drains the shards and merges their centers: the ≤ s·k union points
// are reclustered with core.Gonzalez into ≤ k final centers, exactly as
// MRG's final round runs GON over the collected reducer centers. It returns
// an error when called twice or when nothing was pushed.
func (s *Sharded) Finish() (*Result, error) {
	if !s.finished.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("stream: Finish called twice")
	}
	// Take the write side so any in-flight Push completes its send before
	// the channels close; the wait for shard drain happens after release so
	// blocked pushes (full buffers) cannot deadlock against it.
	s.mu.Lock()
	for _, ch := range s.chans {
		close(ch)
	}
	s.mu.Unlock()
	s.wg.Wait()
	if err := s.Failed(); err != nil {
		// The goroutines are reaped and every buffered message drained
		// (into the dropped counter), but the summaries are suspect: no
		// final merge is produced.
		return nil, err
	}
	return s.mergeShards(false, "Finish on")
}
