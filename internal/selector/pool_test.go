package selector

import (
	"errors"
	"testing"
)

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.String() != name {
			t.Fatalf("ParsePolicy(%q).String() = %q", name, p.String())
		}
	}
	if _, err := ParsePolicy("least-connections"); err != nil {
		t.Fatalf("legacy alias least-connections rejected: %v", err)
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy(bogus) did not fail")
	}
	if Policy(99).String() != "?" {
		t.Fatal("unknown policy String")
	}
}

func TestPoolAddRemove(t *testing.T) {
	p := New(DefaultOptions(RoundRobin))
	if _, ok := p.Pick(""); ok {
		t.Fatal("empty pool picked a backend")
	}
	if err := p.Add("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Add("a", 1); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate add: %v", err)
	}
	if err := p.Add("bad", 0); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("zero weight: %v", err)
	}
	if err := p.Add("b", 1); err != nil {
		t.Fatal(err)
	}
	if got := p.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names = %v", got)
	}
	if err := p.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("a"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("double remove: %v", err)
	}
	p.Discard("a") // idempotent
	if p.Len() != 1 || !p.Has("b") || p.Has("a") {
		t.Fatal("pool membership wrong after removals")
	}
}

func TestPoolEvictionHooksFire(t *testing.T) {
	p := New(DefaultOptions(Rendezvous))
	var evicted []string
	p.OnEvict(func(name string) { evicted = append(evicted, name) })
	for _, n := range []string{"a", "b", "c"} {
		if err := p.Add(n, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Remove("b"); err != nil {
		t.Fatal(err)
	}
	p.Discard("c")
	p.Discard("c") // second discard: no entry, no hook
	if len(evicted) != 2 || evicted[0] != "b" || evicted[1] != "c" {
		t.Fatalf("evicted = %v", evicted)
	}
}

func TestPoolAcquireReleaseCounts(t *testing.T) {
	p := New(DefaultOptions(LeastPending))
	if err := p.Add("a", 1); err != nil {
		t.Fatal(err)
	}
	p.Acquire("a")
	p.Acquire("a")
	if got := p.Pendings()["a"]; got != 2 {
		t.Fatalf("pending = %d", got)
	}
	p.Release("a", 0.01, false)
	p.Release("a", 0.02, true)
	if got := p.Pendings()["a"]; got != 0 {
		t.Fatalf("pending after releases = %d", got)
	}
	st := p.Snapshot()
	if len(st) != 1 || st[0].Served != 1 || st[0].Failed != 1 {
		t.Fatalf("snapshot = %+v", st)
	}
	// Releases for departed backends are ignored, never negative.
	p.Acquire("a")
	if err := p.Remove("a"); err != nil {
		t.Fatal(err)
	}
	p.Release("a", 0.01, false)
	if len(p.Pendings()) != 0 {
		t.Fatal("departed backend still has pendings")
	}
}

func TestPoolProbeCycle(t *testing.T) {
	now := 0.0
	opts := DefaultOptions(RoundRobin)
	opts.Now = func() float64 { return now }
	opts.ProbeAfterSeconds = 5
	p := New(opts)
	for _, n := range []string{"a", "b"} {
		if err := p.Add(n, 1); err != nil {
			t.Fatal(err)
		}
	}
	p.MarkDown("a")
	for i := 0; i < 6; i++ {
		name, ok := p.Pick("")
		if !ok || name == "a" {
			t.Fatalf("pick %d returned down backend (%q, %v)", i, name, ok)
		}
	}
	// After the probe interval, exactly one probe goes to a.
	now = 6
	name, ok := p.Pick("")
	if !ok || name != "a" {
		t.Fatalf("expected probe pick of a, got %q", name)
	}
	// While the probe is outstanding, a stays out of rotation.
	if name, _ := p.Pick(""); name == "a" {
		t.Fatal("second pick hit the probing backend")
	}
	// A failed probe rearms the timer: no second probe before 2 intervals.
	p.Release("a", 0.5, true)
	now = 7
	if name, _ := p.Pick(""); name == "a" {
		t.Fatal("probe retried before the interval elapsed")
	}
	now = 12
	if name, _ := p.Pick(""); name != "a" {
		t.Fatal("probe did not retry after the interval")
	}
	// A successful probe restores the backend.
	p.Release("a", 0.01, false)
	if !p.Healthy("a") {
		t.Fatal("successful probe did not mark the backend up")
	}
}

func TestPoolAllDownDegradesGracefully(t *testing.T) {
	p := New(DefaultOptions(LeastPending))
	for _, n := range []string{"a", "b"} {
		if err := p.Add(n, 1); err != nil {
			t.Fatal(err)
		}
	}
	p.MarkDown("a")
	p.MarkDown("b")
	if _, ok := p.Pick(""); !ok {
		t.Fatal("all-down pool refused to pick")
	}
	p.MarkUp("a")
	for i := 0; i < 4; i++ {
		if name, _ := p.Pick(""); name != "a" {
			t.Fatal("pool picked a down backend over a healthy one")
		}
	}
}

// Pick builds its candidate list in the pool's own scratch slice: no
// policy allocates per request (one []*Backend per call before), with
// every backend up, one down, and all down.
func TestPickAllocs(t *testing.T) {
	for _, policy := range []Policy{RoundRobin, WeightedRoundRobin, LeastPending, Balanced, Rendezvous} {
		p := New(DefaultOptions(policy))
		for _, n := range []string{"a", "b", "c"} {
			if err := p.Add(n, 1); err != nil {
				t.Fatal(err)
			}
		}
		for _, down := range [][]string{nil, {"b"}, {"a", "c"}} {
			for _, n := range down {
				p.MarkDown(n)
			}
			got := testing.AllocsPerRun(100, func() {
				name, ok := p.Pick("SELECT 1")
				if !ok {
					t.Fatal("pick refused")
				}
				p.Acquire(name)
				p.Release(name, 0.01, false)
			})
			if got != 0 {
				t.Errorf("%s with %d down: Pick+Acquire+Release allocates %v objects, want 0", policy, len(down), got)
			}
		}
	}
}

type fakeSuspector map[string]bool

func (f fakeSuspector) Suspected(name string) bool { return f[name] }

func TestPoolSyncSuspicions(t *testing.T) {
	p := New(DefaultOptions(Balanced))
	for _, n := range []string{"a", "b"} {
		if err := p.Add(n, 1); err != nil {
			t.Fatal(err)
		}
	}
	sus := fakeSuspector{"a": true}
	p.SyncSuspicions(sus)
	if p.Healthy("a") || !p.Healthy("b") {
		t.Fatal("suspicions not applied")
	}
	sus["a"] = false
	p.SyncSuspicions(sus)
	if !p.Healthy("a") {
		t.Fatal("cleared suspicion did not restore the backend")
	}
	p.SyncSuspicions(nil) // nil suspector: no-op
}

func TestReservoirDecay(t *testing.T) {
	r := reservoir{halfLife: 10}
	r.add(0, 8)
	if v := r.valueAt(10); v < 3.99 || v > 4.01 {
		t.Fatalf("half-life decay: %g", v)
	}
	if v := r.valueAt(30); v < 0.99 || v > 1.01 {
		t.Fatalf("three half-lives: %g", v)
	}
	// Reads are pure: repeated observation does not change the value.
	_ = r.valueAt(20)
	if v := r.valueAt(30); v < 0.99 || v > 1.01 {
		t.Fatalf("observation perturbed the reservoir: %g", v)
	}
	r.add(10, 4)
	if v := r.valueAt(10); v < 7.99 || v > 8.01 {
		t.Fatalf("decay-then-add: %g", v)
	}
}

func TestBalancedScoreComposition(t *testing.T) {
	opts := DefaultOptions(Balanced)
	now := 0.0
	opts.Now = func() float64 { return now }
	p := New(opts)
	for _, n := range []string{"fast", "slow"} {
		if err := p.Add(n, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Record a slow, failing history on "slow" and a clean one on "fast".
	for i := 0; i < 5; i++ {
		p.Acquire("slow")
		p.Release("slow", 2.0, i%2 == 0)
		p.Acquire("fast")
		p.Release("fast", 0.01, false)
	}
	st := p.Snapshot()
	if st[0].Name != "fast" || st[1].Name != "slow" {
		t.Fatalf("snapshot order: %+v", st)
	}
	if st[1].Score <= st[0].Score {
		t.Fatalf("slow backend does not score worse: %+v", st)
	}
	for i := 0; i < 8; i++ {
		if name, _ := p.Pick(""); name != "fast" {
			t.Fatal("balanced picked the degraded backend")
		}
	}
	// The history decays: after many half-lives the backends tie again
	// and cold-start round-robin resumes.
	now = 1e6
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		name, _ := p.Pick("")
		seen[name] = true
	}
	if !seen["slow"] {
		t.Fatal("decayed backend never returned to rotation")
	}
}
