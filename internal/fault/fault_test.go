package fault

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// armed returns a Set with rules armed, failing the test on a bad rule.
func armed(tb testing.TB, rules map[string]Rule) *Set {
	tb.Helper()
	s := new(Set)
	if err := s.Arm(rules); err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestDisarmedHitPasses(t *testing.T) {
	var nilSet *Set
	disarmed := armed(t, map[string]Rule{StreamShard: {Mode: ModePanic}})
	disarmed.Disarm()
	for _, s := range []*Set{nilSet, new(Set), disarmed} {
		if s.Armed() {
			t.Fatal("Armed on a disarmed Set")
		}
		if err := s.Hit(StreamShard); err != nil {
			t.Fatalf("disarmed Hit returned %v", err)
		}
		if s.Hits(StreamShard) != 0 || s.Fired(StreamShard) != 0 {
			t.Fatal("disarmed Hit counted")
		}
	}
}

// TestSetsAreIndependent pins the isolation contract: rules armed on one Set
// never fire, or count, on another.
func TestSetsAreIndependent(t *testing.T) {
	a := armed(t, map[string]Rule{"p": {Mode: ModeError}})
	b := new(Set)
	if err := b.Hit("p"); err != nil {
		t.Fatalf("unarmed Set fired: %v", err)
	}
	if a.Hit("p") == nil {
		t.Fatal("armed Set did not fire")
	}
	if a.Hits("p") != 1 || b.Hits("p") != 0 {
		t.Fatalf("hits a=%d b=%d, want 1/0", a.Hits("p"), b.Hits("p"))
	}
}

func TestErrorAlways(t *testing.T) {
	s := armed(t, map[string]Rule{"p": {Mode: ModeError}})
	for i := 0; i < 3; i++ {
		err := s.Hit("p")
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: got %v, want ErrInjected", i, err)
		}
	}
	if s.Hits("p") != 3 || s.Fired("p") != 3 {
		t.Fatalf("hits=%d fired=%d, want 3/3", s.Hits("p"), s.Fired("p"))
	}
	if err := s.Hit("other"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestErrorOnce(t *testing.T) {
	s := armed(t, map[string]Rule{"p": {Mode: ModeErrorOnce, After: 2}})
	var fails int
	for i := 0; i < 10; i++ {
		if s.Hit("p") != nil {
			fails++
			if i != 2 {
				t.Fatalf("fired on hit %d, want hit 2", i)
			}
		}
	}
	if fails != 1 {
		t.Fatalf("fired %d times, want exactly once", fails)
	}
}

func TestErrorAfterN(t *testing.T) {
	s := armed(t, map[string]Rule{"p": {Mode: ModeError, After: 5}})
	for i := 0; i < 5; i++ {
		if err := s.Hit("p"); err != nil {
			t.Fatalf("hit %d fired early: %v", i, err)
		}
	}
	for i := 5; i < 8; i++ {
		if s.Hit("p") == nil {
			t.Fatalf("hit %d did not fire", i)
		}
	}
}

func TestPanicCarriesPanicValue(t *testing.T) {
	s := armed(t, map[string]Rule{"p": {Mode: ModePanic}})
	defer func() {
		v := recover()
		pv, ok := v.(PanicValue)
		if !ok {
			t.Fatalf("panicked with %T %v, want PanicValue", v, v)
		}
		if pv.Point != "p" || pv.Hit != 1 {
			t.Fatalf("PanicValue = %+v", pv)
		}
	}()
	_ = s.Hit("p")
	t.Fatal("Hit did not panic")
}

func TestDelaySleeps(t *testing.T) {
	s := armed(t, map[string]Rule{"p": {Mode: ModeDelay, Delay: 20 * time.Millisecond}})
	start := time.Now()
	if err := s.Hit("p"); err != nil {
		t.Fatalf("delay rule returned %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("delay rule slept only %v", d)
	}
}

func TestArmValidates(t *testing.T) {
	cases := []map[string]Rule{
		nil,
		{"": {Mode: ModeError}},
		{"p": {}},
		{"p": {Mode: ModeDelay}},
		{"p": {Mode: ModeError, After: -1}},
	}
	var s Set
	for i, rules := range cases {
		if err := s.Arm(rules); err == nil {
			t.Fatalf("case %d: Arm accepted invalid rules %v", i, rules)
		}
	}
	if s.Armed() {
		t.Fatal("failed Arm armed the Set")
	}
}

// TestConcurrentHits drives one armed point from many goroutines while a
// disarmed point is hit alongside, then races Arm/Disarm against the same
// hits; run under -race this pins the lock-free publication discipline.
func TestConcurrentHits(t *testing.T) {
	s := armed(t, map[string]Rule{"p": {Mode: ModeError, After: 100}})
	const workers, per = 8, 500
	var wg sync.WaitGroup
	var fails atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if s.Hit("p") != nil {
					fails.Add(1)
				}
				_ = s.Hit("quiet")
			}
		}()
	}
	wg.Wait()
	total := int64(workers * per)
	if s.Hits("p") != total {
		t.Fatalf("hits=%d, want %d", s.Hits("p"), total)
	}
	if got := fails.Load(); got != total-100 {
		t.Fatalf("fired %d, want %d", got, total-100)
	}

	// Arm and Disarm flip the same Set while the workers keep hitting it:
	// every Hit sees either a whole rule table or none.
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = s.Hit("p")
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s.Disarm()
		if err := s.Arm(map[string]Rule{"p": {Mode: ModeErrorOnce}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if s.Fired("p") > 1 {
		t.Fatalf("error-once rule fired %d times", s.Fired("p"))
	}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("checkpoint.fsync=error-always; stream.shard=panic-after-1000,server.ingest=delay-50ms-after-10")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Rule{
		"checkpoint.fsync": {Mode: ModeError},
		"stream.shard":     {Mode: ModePanic, After: 1000},
		"server.ingest":    {Mode: ModeDelay, Delay: 50 * time.Millisecond, After: 10},
	}
	if len(rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d", len(rules), len(want))
	}
	for name, w := range want {
		if rules[name] != w {
			t.Fatalf("%s: got %+v, want %+v", name, rules[name], w)
		}
	}
	for _, bad := range []string{"", "p", "p=", "=x", "p=explode", "p=error-after-x", "p=delay-", "p=delay-bogus", "p=panic-after--1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

// BenchmarkHitDisabled measures the production cost of an injection point:
// Hit on a nil Set must stay a single nil check and branch.
func BenchmarkHitDisabled(b *testing.B) {
	var s *Set
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Hit(StreamShard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHitArmedPassing(b *testing.B) {
	s := armed(b, map[string]Rule{"other": {Mode: ModeError}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Hit(StreamShard); err != nil {
			b.Fatal(err)
		}
	}
}
