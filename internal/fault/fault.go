// Package fault is a deterministic fault-injection framework for exercising
// the serving stack's failure handling. Code under test declares named
// injection points by calling Hit on the *Set it was configured with; a test
// (or the kcenter serve CLI via its -faults flag) arms that Set with per-point
// rules — error once, error always, error after N passes, panic, delay — and
// the instrumented paths fail exactly where and when the rules say, with no
// randomness, so every chaos run is reproducible.
//
// A Set belongs to the component that carries it (server.Config.Faults,
// stream.ShardedConfig.Faults, the checkpoint write path), so arming one
// Service's rules never reaches another Service in the same process. The
// nil Set is the production state: Hit on it is a single nil check and
// branch, small enough to inline at every call site, so binaries carry the
// injection points at no measurable cost. Rules are immutable once armed —
// Arm publishes a fresh rule table through an atomic pointer and per-point
// counters are atomics — so Hit is safe under full producer concurrency and
// the race detector, and tests may Arm and Disarm in the middle of a run.
//
// Injection points are plain strings; the constants below name every point
// the repo threads through its layers (checkpoint I/O, shard consumption,
// ingest workers, request decode), and tests may mint their own.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Injection points threaded through the serving stack. Each names the exact
// operation that fails when a rule is armed on it.
const (
	// CheckpointCreate fails checkpoint.Write at temp-file creation.
	CheckpointCreate = "checkpoint.create"
	// CheckpointWrite fails checkpoint.Write after the header but before
	// the payload, simulating ENOSPC mid-write (the temp file is torn; the
	// live checkpoint must stay intact).
	CheckpointWrite = "checkpoint.write"
	// CheckpointSync fails the temp-file fsync.
	CheckpointSync = "checkpoint.fsync"
	// CheckpointRename fails the atomic rename over the live file.
	CheckpointRename = "checkpoint.rename"
	// CheckpointDirSync fails the directory fsync after the rename (the
	// rename itself has happened; the caller sees an error anyway).
	CheckpointDirSync = "checkpoint.dirsync"
	// CheckpointRotate aborts checkpoint.Rotate at a history-shift step,
	// simulating a crash mid-rotation.
	CheckpointRotate = "checkpoint.rotate"
	// StreamShard fires in a shard goroutine as it consumes a message; any
	// firing rule (error or panic) panics there, exercising the shard
	// containment path. A delay rule wedges the shard instead.
	StreamShard = "stream.shard"
	// ServerIngest fires in a tenant's ingest worker before it pushes a
	// queued batch; firing rules panic there, delay rules slow the worker
	// (backing its queue up toward the shed watermark).
	ServerIngest = "server.ingest"
	// ServerDecode fires in the HTTP request-decode path; error rules
	// reject the request as malformed, panic rules exercise the handler
	// recovery middleware.
	ServerDecode = "server.decode"
	// ServerReplicatePush fires in the replication push loop as a node is
	// about to ship a tenant's exported state to a peer; error rules fail
	// that push (the peer backs off and is retried — the tenant keeps
	// serving), delay rules model a slow network.
	ServerReplicatePush = "server.replicate.push"
	// ServerReplicateRecv fires in the /v1/replicate handler before the
	// payload is decoded; error rules reject the push as corrupt (400,
	// nothing merged), panic rules exercise the recovery middleware.
	ServerReplicateRecv = "server.replicate.recv"
)

// ErrInjected is the root of every error an armed rule returns; detect with
// errors.Is to distinguish injected failures from organic ones.
var ErrInjected = errors.New("injected fault")

// Mode is what a rule does once it starts firing.
type Mode uint8

const (
	// ModeError returns an injected error on every hit past After.
	ModeError Mode = iota + 1
	// ModeErrorOnce returns an injected error on exactly the first hit
	// past After, then passes.
	ModeErrorOnce
	// ModePanic panics with a PanicValue on every hit past After.
	ModePanic
	// ModeDelay sleeps Delay on every hit past After, then passes.
	ModeDelay
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error-always"
	case ModeErrorOnce:
		return "error-once"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	}
	return "invalid"
}

// Rule is one injection point's policy. The zero Rule is invalid; Arm
// rejects it.
type Rule struct {
	// Mode selects the failure behavior.
	Mode Mode
	// After is how many hits pass through before the rule starts firing
	// (0: fire from the first hit). "error-after-N" is ModeError with
	// After=N.
	After int64
	// Delay is the sleep per firing hit (ModeDelay only).
	Delay time.Duration
}

// PanicValue is the value ModePanic panics with, so containment code (and
// its tests) can identify an injected panic and name the point that fired.
type PanicValue struct {
	// Point is the injection point that fired.
	Point string
	// Hit is the 1-based hit count at which it fired.
	Hit int64
}

func (v PanicValue) String() string {
	return fmt.Sprintf("injected panic at %s (hit %d)", v.Point, v.Hit)
}

// point is one armed injection point: its immutable rule plus atomic
// counters.
type point struct {
	rule  Rule
	hits  atomic.Int64
	fired atomic.Int64
}

// Set is one component's switchboard: the armed rule table, published
// through a single atomic pointer so Hit never takes a lock. The zero Set is
// disarmed and ready to Arm; a nil *Set passes every Hit and can never be
// armed, which is how production code runs.
type Set struct {
	table atomic.Pointer[map[string]*point]
}

// Armed reports whether s has rules armed; false for a nil Set.
func (s *Set) Armed() bool { return s != nil && s.table.Load() != nil }

// Hit declares an injection point. On a nil Set — the production state — it
// is a single nil check and branch, cheap enough to sit on hot paths. When
// armed, the point's rule (if any) decides: nil return (pass, or delay
// elapsed), an error wrapping ErrInjected, or a panic carrying a PanicValue.
func (s *Set) Hit(name string) error {
	if s == nil {
		return nil
	}
	return s.hit(name)
}

// hit is the armed slow path, kept out of Hit so Hit stays inlineable.
func (s *Set) hit(name string) error {
	p := s.point(name)
	if p == nil {
		return nil
	}
	n := p.hits.Add(1)
	if n <= p.rule.After {
		return nil
	}
	switch p.rule.Mode {
	case ModeErrorOnce:
		if n != p.rule.After+1 {
			return nil
		}
		p.fired.Add(1)
		return fmt.Errorf("%w: %s (hit %d)", ErrInjected, name, n)
	case ModeError:
		p.fired.Add(1)
		return fmt.Errorf("%w: %s (hit %d)", ErrInjected, name, n)
	case ModePanic:
		p.fired.Add(1)
		panic(PanicValue{Point: name, Hit: n})
	case ModeDelay:
		p.fired.Add(1)
		time.Sleep(p.rule.Delay)
	}
	return nil
}

// point returns the named armed point, or nil when s is disarmed or has no
// rule for it.
func (s *Set) point(name string) *point {
	if s == nil {
		return nil
	}
	if t := s.table.Load(); t != nil {
		return (*t)[name]
	}
	return nil
}

// Arm arms the given rules on s, replacing any previously armed set and
// resetting all counters. Rules are validated first; on error nothing
// changes.
func (s *Set) Arm(rules map[string]Rule) error {
	if len(rules) == 0 {
		return fmt.Errorf("fault: no rules to arm")
	}
	t := make(map[string]*point, len(rules))
	for name, r := range rules {
		if name == "" {
			return fmt.Errorf("fault: empty injection point name")
		}
		switch r.Mode {
		case ModeError, ModeErrorOnce, ModePanic:
		case ModeDelay:
			if r.Delay <= 0 {
				return fmt.Errorf("fault: %s: delay rule needs a positive delay", name)
			}
		default:
			return fmt.Errorf("fault: %s: invalid mode %d", name, r.Mode)
		}
		if r.After < 0 {
			return fmt.Errorf("fault: %s: negative after %d", name, r.After)
		}
		t[name] = &point{rule: r}
	}
	s.table.Store(&t)
	return nil
}

// Disarm drops every rule; later Hits pass. Counters are discarded; read
// them with Hits/Fired before disarming.
func (s *Set) Disarm() { s.table.Store(nil) }

// Hits returns how many times the named armed point has been passed through
// (firing or not); 0 when disarmed or unknown.
func (s *Set) Hits(name string) int64 {
	if p := s.point(name); p != nil {
		return p.hits.Load()
	}
	return 0
}

// Fired returns how many times the named armed point actually fired; 0 when
// disarmed or unknown.
func (s *Set) Fired(name string) int64 {
	if p := s.point(name); p != nil {
		return p.fired.Load()
	}
	return 0
}

// ParseSpec parses a CLI-friendly fault specification into rules:
// semicolon- or comma-separated "point=policy" items, where policy is one
// of
//
//	error-once            error on the first hit, then pass
//	error-always          error on every hit (alias: error)
//	error-after-N         pass N hits, then error on every later one
//	panic | panic-after-N panic with a PanicValue
//	delay-DUR             sleep DUR per hit (DUR as in time.ParseDuration)
//	delay-DUR-after-N     pass N hits first
//
// e.g. "checkpoint.fsync=error-always;stream.shard=panic-after-1000".
func ParseSpec(spec string) (map[string]Rule, error) {
	rules := make(map[string]Rule)
	for _, item := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, policy, ok := strings.Cut(item, "=")
		if !ok || name == "" || policy == "" {
			return nil, fmt.Errorf("fault: bad spec item %q, want point=policy", item)
		}
		r, err := parsePolicy(policy)
		if err != nil {
			return nil, fmt.Errorf("fault: %s: %w", name, err)
		}
		rules[name] = r
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: empty spec %q", spec)
	}
	return rules, nil
}

// parsePolicy parses one policy token of the ParseSpec grammar.
func parsePolicy(policy string) (Rule, error) {
	var r Rule
	base := policy
	// Durations never contain "-after-", so splitting on the suffix first
	// keeps "delay-50ms-after-10" unambiguous.
	if head, tail, ok := cutLast(policy, "-after-"); ok {
		n, err := strconv.ParseInt(tail, 10, 64)
		if err != nil || n < 0 {
			return r, fmt.Errorf("bad after count in %q", policy)
		}
		r.After = n
		base = head
	}
	switch {
	case base == "error" || base == "error-always":
		r.Mode = ModeError
	case base == "error-once":
		r.Mode = ModeErrorOnce
	case base == "panic":
		r.Mode = ModePanic
	case strings.HasPrefix(base, "delay-"):
		d, err := time.ParseDuration(strings.TrimPrefix(base, "delay-"))
		if err != nil || d <= 0 {
			return r, fmt.Errorf("bad delay in %q", policy)
		}
		r.Mode = ModeDelay
		r.Delay = d
	default:
		return r, fmt.Errorf("unknown policy %q", policy)
	}
	return r, nil
}

// cutLast splits s around the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}
