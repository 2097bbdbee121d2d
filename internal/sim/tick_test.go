package sim

import "testing"

func TestTickBarrierRunsInRegistrationOrder(t *testing.T) {
	e := NewEngine(1)
	b := NewTickBarrier(e, 2.0, "tick")
	var order []string
	var dts []float64
	b.Register("a", func(now, dt float64) { order = append(order, "a") })
	b.Register("b", func(now, dt float64) {
		order = append(order, "b")
		dts = append(dts, dt)
	})
	b.Start()
	e.RunUntil(7)
	if got, want := len(order), 6; got != want { // 3 ticks x 2 fns
		t.Fatalf("got %d calls (%v), want %d", got, order, want)
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "a" || order[i+1] != "b" {
			t.Fatalf("registration order violated: %v", order)
		}
	}
	for _, dt := range dts {
		if dt != 2.0 {
			t.Fatalf("dt = %v, want 2.0 (dts %v)", dt, dts)
		}
	}
	if b.Ticks() != 3 {
		t.Fatalf("Ticks() = %d, want 3", b.Ticks())
	}
}

func TestTickBarrierOneHeapEventPerTick(t *testing.T) {
	e := NewEngine(1)
	b := NewTickBarrier(e, 1.0, "tick")
	for i := 0; i < 50; i++ { // many registrants, still one event per tick
		b.Register("f", func(now, dt float64) {})
	}
	b.Start()
	e.RunUntil(10)
	if got := e.Processed(); got != 10 {
		t.Fatalf("processed %d events for 10 ticks of 50 registrants, want 10", got)
	}
}

func TestTickBarrierStopAndRestart(t *testing.T) {
	e := NewEngine(1)
	b := NewTickBarrier(e, 1.0, "tick")
	n := 0
	b.Register("n", func(now, dt float64) { n++ })
	b.Start()
	b.Start() // no-op: must not double-tick
	e.RunUntil(3)
	b.Stop()
	b.Stop()
	e.RunUntil(6)
	if n != 3 {
		t.Fatalf("ticks after stop: n = %d, want 3", n)
	}
	b.Start()
	e.RunUntil(8)
	if n != 5 {
		t.Fatalf("ticks after restart: n = %d, want 5", n)
	}
	// dt after a restart spans only the period, not the stopped gap.
	var lastDt float64
	b.Register("dt", func(now, dt float64) { lastDt = dt })
	e.RunUntil(9)
	if lastDt != 1.0 {
		t.Fatalf("dt after restart = %v, want 1.0", lastDt)
	}
}

func TestTickBarrierZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTickBarrier with period 0 did not panic")
		}
	}()
	NewTickBarrier(NewEngine(1), 0, "bad")
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
