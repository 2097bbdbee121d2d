package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		e.After(d, "ev", func() { order = append(order, d) })
	}
	e.Run()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %v after run, want 5", e.Now())
	}
}

func TestTiesBreakInSchedulingOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, "tie", func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want ascending scheduling order", order)
		}
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(1, "never", func() { fired = true })
	if !ev.Pending() {
		t.Fatal("Pending() = false for a freshly scheduled event")
	}
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	if ev.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
	// Double cancel and zero-handle cancel must be safe.
	e.Cancel(ev)
	e.Cancel(Handle{})
}

func TestCancelFromWithinEarlierEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(2, "victim", func() { fired = true })
	e.After(1, "canceler", func() { e.Cancel(ev) })
	e.Run()
	if fired {
		t.Fatal("event canceled at t=1 still fired at t=2")
	}
}

func TestSchedulingInsidePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(5, "x", func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(1, "past", func() {})
}

func TestNonFiniteTimePanics(t *testing.T) {
	e := NewEngine(1)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%v) did not panic", bad)
				}
			}()
			e.At(bad, "bad", func() {})
		}()
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", e.Now())
	}
}

func TestRunUntilExecutesBoundaryEvent(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(10, "a", func() { fired++ })
	e.At(10.0000001, "b", func() { fired++ })
	e.RunUntil(10)
	if fired != 1 {
		t.Fatalf("fired = %d, want exactly the boundary event", fired)
	}
	e.RunUntil(11)
	if fired != 2 {
		t.Fatalf("fired = %d after extending run, want 2", fired)
	}
}

func TestRunUntilBackwardsPanics(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil in the past did not panic")
		}
	}()
	e.RunUntil(5)
}

func TestStopInterruptsRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.After(float64(i), "n", func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("executed %d events before Stop took effect, want 3", count)
	}
	// A subsequent Run resumes with remaining events.
	e.Run()
	if count != 10 {
		t.Fatalf("executed %d events total, want 10", count)
	}
}

func TestEventsScheduledDuringRunExecute(t *testing.T) {
	e := NewEngine(1)
	var seq []string
	e.After(1, "outer", func() {
		seq = append(seq, "outer")
		e.After(1, "inner", func() { seq = append(seq, "inner") })
	})
	e.Run()
	if len(seq) != 2 || seq[0] != "outer" || seq[1] != "inner" {
		t.Fatalf("seq = %v", seq)
	}
	if e.Now() != 2 {
		t.Fatalf("Now() = %v, want 2", e.Now())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine(1)
	var times []float64
	tk := e.Every(2, "tick", func(now float64) {
		times = append(times, now)
	})
	e.RunUntil(9)
	tk.Stop()
	want := []float64{2, 4, 6, 8}
	if len(times) != len(want) {
		t.Fatalf("ticks at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticks at %v, want %v", times, want)
		}
	}
	e.RunUntil(100)
	if len(times) != len(want) {
		t.Fatal("ticker fired after Stop")
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tk *Ticker
	tk = e.Every(1, "tick", func(now float64) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(50)
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3", n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []float64 {
		e := NewEngine(99)
		var out []float64
		var spawn func()
		spawn = func() {
			if e.Now() > 50 {
				return
			}
			out = append(out, e.Now())
			e.After(e.Exponential(3), "spawn", spawn)
			e.After(e.Uniform(0.5, 2), "leaf", func() { out = append(out, -e.Now()) })
		}
		e.After(0, "seed", spawn)
		e.Run()
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestExponentialAndUniformEdgeCases(t *testing.T) {
	e := NewEngine(1)
	if v := e.Exponential(0); v != 0 {
		t.Fatalf("Exponential(0) = %v, want 0", v)
	}
	if v := e.Exponential(-1); v != 0 {
		t.Fatalf("Exponential(-1) = %v, want 0", v)
	}
	if v := e.Uniform(5, 5); v != 5 {
		t.Fatalf("Uniform(5,5) = %v, want 5", v)
	}
	if v := e.Uniform(5, 3); v != 5 {
		t.Fatalf("Uniform(5,3) = %v, want lo", v)
	}
}

func TestZeroPeriodTickerPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	e.Every(0, "bad", func(float64) {})
}

// Property: for any set of non-negative delays, events fire in sorted
// order and the final clock equals the max delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine(7)
		var fired []float64
		maxT := 0.0
		for _, r := range raw {
			d := float64(r) / 100
			if d > maxT {
				maxT = d
			}
			e.After(d, "p", func() { fired = append(fired, d) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return e.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling an arbitrary subset of events fires exactly the
// complement.
func TestPropertyCancellation(t *testing.T) {
	f := func(raw []uint16, mask []bool) bool {
		e := NewEngine(7)
		fired := map[int]bool{}
		evs := make([]Handle, len(raw))
		for i, r := range raw {
			i := i
			evs[i] = e.After(float64(r)/50, "p", func() { fired[i] = true })
		}
		want := len(raw)
		for i := range raw {
			if i < len(mask) && mask[i] {
				e.Cancel(evs[i])
				want--
			}
		}
		e.Run()
		if len(fired) != want {
			return false
		}
		for i := range raw {
			canceled := i < len(mask) && mask[i]
			if fired[i] == canceled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingCountsLiveEvents: Pending excludes canceled events parked in
// the queue; PendingRaw exposes the raw queue length.
func TestPendingCountsLiveEvents(t *testing.T) {
	e := NewEngine(1)
	var hs []Handle
	for i := 0; i < 10; i++ {
		hs = append(hs, e.After(float64(i+1), "p", func() {}))
	}
	if e.Pending() != 10 || e.PendingRaw() != 10 {
		t.Fatalf("Pending/PendingRaw = %d/%d, want 10/10", e.Pending(), e.PendingRaw())
	}
	for _, h := range hs[:4] {
		e.Cancel(h)
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d after 4 cancels, want 6", e.Pending())
	}
	if e.PendingRaw() != 10 {
		t.Fatalf("PendingRaw = %d after lazy cancels, want 10", e.PendingRaw())
	}
	e.Run()
	if e.Pending() != 0 || e.PendingRaw() != 0 {
		t.Fatalf("Pending/PendingRaw = %d/%d after drain, want 0/0", e.Pending(), e.PendingRaw())
	}
}

// TestStaleHandleIsInert: a handle kept after its event fired (and the
// struct was recycled for a new schedule) must not cancel the new event.
func TestStaleHandleIsInert(t *testing.T) {
	e := NewEngine(1)
	stale := e.After(1, "old", func() {})
	e.Run()
	if stale.Pending() || stale.Canceled() {
		t.Fatal("fired event still reports pending/canceled")
	}
	// The freelist hands the same struct back to the next schedule.
	fired := false
	fresh := e.After(1, "new", func() { fired = true })
	e.Cancel(stale) // must be a no-op even though the struct was reused
	e.Run()
	if !fired {
		t.Fatal("canceling a stale handle killed an unrelated event")
	}
	if fresh.Canceled() {
		t.Fatal("fresh event reports canceled")
	}
}

// TestLazyCancelDoesNotLeak: a cancel-heavy workload (every scheduled
// event is canceled and replaced, the node-reschedule pattern) must not
// accumulate canceled events in the queue.
func TestLazyCancelDoesNotLeak(t *testing.T) {
	e := NewEngine(1)
	// Keep a standing population of live events while churning cancels.
	var live []Handle
	for i := 0; i < 100; i++ {
		live = append(live, e.At(1e6+float64(i), "live", func() {}))
	}
	for i := 0; i < 100000; i++ {
		h := e.After(1000, "churn", func() {})
		e.Cancel(h)
	}
	if got := e.Pending(); got != 100 {
		t.Fatalf("Pending = %d, want the 100 live events", got)
	}
	// The raw queue must stay within the compaction bound, not grow with
	// the number of cancels.
	if raw := e.PendingRaw(); raw > 300 {
		t.Fatalf("PendingRaw = %d after 100k cancels; lazy cancel leaks", raw)
	}
	for _, h := range live {
		e.Cancel(h)
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// nop is a package-level callback so the alloc tests measure the engine,
// not closure capture at the call site.
func nop() {}

// TestScheduleFireAllocs locks in the freelist: once warm, a
// schedule+fire cycle performs zero heap allocations.
func TestScheduleFireAllocs(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 4096; i++ {
		e.After(1, "warm", nop)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.After(1, "x", nop)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule+fire allocates %.2f objects/op, want 0", avg)
	}
}

// TestScheduleCancelAllocs locks in lazy cancel: a warm schedule+cancel
// cycle (including the amortized compaction) allocates nothing.
func TestScheduleCancelAllocs(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 4096; i++ {
		e.After(1, "warm", nop)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		h := e.After(1, "x", nop)
		e.Cancel(h)
	})
	if avg != 0 {
		t.Fatalf("schedule+cancel allocates %.2f objects/op, want 0", avg)
	}
}

// counter is a Handler that counts its firings.
type counter int

func (c *counter) Fire() { *c++ }

// A warm Handler schedule+fire and schedule+cancel allocate nothing, as
// their func forms do.
func TestScheduleHandlerAllocs(t *testing.T) {
	e := NewEngine(1)
	var c counter
	for i := 0; i < 4096; i++ {
		e.Schedule(1, "warm", &c)
	}
	e.Run()
	fire := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, "x", &c)
		e.Step()
	})
	cancel := testing.AllocsPerRun(1000, func() {
		e.Cancel(e.Schedule(e.Now()+1, "x", &c))
	})
	if fire != 0 || cancel != 0 {
		t.Fatalf("schedule+fire allocates %.2f, schedule+cancel %.2f objects/op, want 0 and 0", fire, cancel)
	}
	if c != 4096+1001 {
		t.Fatalf("handler fired %d times, want %d", c, 4096+1001)
	}
}

// step records its index in the firing order.
type step struct {
	i     int
	order *[]int
}

func (s *step) Fire() { *s.order = append(*s.order, s.i) }

// Handlers and funcs share one queue: at equal times they fire in the
// order they were scheduled, whichever form each took.
func TestHandlerAndFuncTiesBreakInSchedulingOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		if i%3 == 0 {
			e.Schedule(7, "handler", &step{i: i, order: &order})
		} else {
			i := i
			e.At(7, "func", func() { order = append(order, i) })
		}
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want ascending scheduling order", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("fired %d of 10", len(order))
	}
}

// A ticker reschedules itself: once the freelist is warm, a tick
// allocates nothing.
func TestTickAllocs(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	e.Every(1, "tick", func(float64) { ticks++ })
	e.RunUntil(4096)
	avg := testing.AllocsPerRun(1000, func() { e.Step() })
	if avg != 0 {
		t.Fatalf("a tick allocates %.2f objects, want 0", avg)
	}
	if ticks != 4096+1001 {
		t.Fatalf("ticked %d times, want %d", ticks, 4096+1001)
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := 0; j < 1000; j++ {
			e.After(e.Uniform(0, 100), "b", nop)
		}
		e.Run()
	}
}

// BenchmarkEngineCancelHeavy exercises the reschedule pattern the cluster
// nodes use: every completion event is canceled and replaced.
func BenchmarkEngineCancelHeavy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		var h Handle
		for j := 0; j < 1000; j++ {
			e.Cancel(h)
			h = e.After(e.Uniform(1, 2), "b", nop)
		}
		e.Run()
	}
}

// TestCompactionBoundsQueueUnderCancelHeavyLoad is the regression test
// for the lazy-cancel compaction trigger: under a sustained
// cancel-and-reschedule workload with a large population of far-future
// events, the raw queue (live + parked canceled) must stay bounded by
// the majority rule rather than growing with the number of cancels.
func TestCompactionBoundsQueueUnderCancelHeavyLoad(t *testing.T) {
	e := NewEngine(42)
	// Live population: 1000 far-future events that never fire.
	for i := 0; i < 1000; i++ {
		e.At(1e6+float64(i), "far", func() {})
	}
	// Cancel-heavy churn: 50k reschedules of a near-future event.
	var h Handle
	for i := 0; i < 50000; i++ {
		e.Cancel(h)
		h = e.At(float64(i)+1, "resched", func() {})
		// The queue may exceed the bound only until the *next* cancel
		// trips the majority rule, so allow one pending cancel of slack.
		limit := 2*(1000+1) + compactMinCancels + 1
		if raw := e.PendingRaw(); raw > limit {
			t.Fatalf("PendingRaw %d exceeds bound %d after %d cancels", raw, limit, i+1)
		}
	}
	if live := e.Pending(); live != 1000+1 {
		t.Fatalf("Pending %d, want 1001", live)
	}
}
