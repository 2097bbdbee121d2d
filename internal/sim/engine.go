// Package sim provides a deterministic discrete-event simulation engine.
//
// Every experiment in this repository replays the paper's 3000-second
// cluster scenarios on a virtual clock: events are executed in
// non-decreasing time order, ties are broken by scheduling order, and all
// randomness flows through a single seeded source. Two runs with the same
// seed produce identical traces, which makes the control-loop behaviour of
// the Jade managers testable.
//
// The event loop is the hot path of every sweep and figure run, so it is
// written for throughput: the priority queue is a specialized binary heap
// over event pointers (no container/heap interface boxing), event structs
// are batch-allocated and recycled through a freelist, and Cancel is a
// lazy mark — canceled events are discarded when they surface at the top
// of the heap (with a compaction pass when they pile up) instead of an
// O(log n) removal per cancel.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Handler is what an event runs. A record scheduled for several reasons
// gives each its own pointer type converted from the record, so
// scheduling it allocates nothing.
type Handler interface{ Fire() }

// Func adapts a function to Handler; the conversion allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is a scheduled handler. Events are engine-owned and recycled
// after they fire or are discarded; callers refer to them through the
// generation-checked Handle returned by the scheduling methods.
type event struct {
	time     float64
	seq      uint64
	h        Handler
	label    string
	canceled bool
	queued   bool
	next     *event // freelist link
}

// Handle refers to a scheduled event. It is a value (pointer plus the
// event's scheduling generation), so a handle kept after its event fired
// — or after the engine recycled the event struct for a new schedule —
// is simply stale: Cancel on it is a no-op and Pending reports false.
// The zero Handle is valid and refers to nothing.
type Handle struct {
	ev  *event
	seq uint64
}

// live reports whether the handle still names the event it was minted
// for (the struct has not been recycled for a newer schedule).
func (h Handle) live() bool { return h.ev != nil && h.ev.seq == h.seq }

// Pending reports whether the event is still queued to fire.
func (h Handle) Pending() bool { return h.live() && h.ev.queued && !h.ev.canceled }

// Canceled reports whether Cancel was called on the event before it
// fired.
func (h Handle) Canceled() bool { return h.live() && h.ev.canceled }

// compactMinCancels is the lazy-cancel compaction trigger's floor: a
// compaction pass runs only once more than this many canceled events are
// parked in the queue AND they outnumber the live events
// (nCancel*2 > len(queue)). The floor keeps tiny queues from compacting on
// every cancel; the majority rule bounds the queue at roughly 2x the live
// events, so cancel-heavy workloads (the cluster-node reschedule pattern,
// the benchmark's sim.driver_ns_per_cancel) stay amortized O(1) per cancel
// instead of drifting with queue growth.
const compactMinCancels = 64

// Engine is a single-threaded discrete-event executor with a virtual clock
// measured in seconds. The zero value is not usable; construct one with
// NewEngine.
type Engine struct {
	now     float64
	seq     uint64
	queue   []*event // binary min-heap on (time, seq)
	nCancel int      // canceled events still sitting in the queue
	free    *event   // freelist of recycled event structs
	rng     *rand.Rand
	stopped bool
	fault   error
	// processed counts events executed since construction; useful in
	// tests and as a progress indicator.
	processed uint64
	// hook, when set, observes every dispatched event just before its
	// callback runs. Observation only: the telemetry bus uses it to
	// record scheduler activity without perturbing the schedule.
	hook func(t float64, label string)
}

// NewEngine returns an engine whose clock starts at 0 and whose random
// source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's deterministic random source. All simulation
// code must draw randomness from here, never from the global source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of live events waiting to fire. Canceled
// events still parked in the queue are not counted.
func (e *Engine) Pending() int { return len(e.queue) - e.nCancel }

// PendingRaw returns the raw queue length, including canceled events not
// yet discarded by the lazy-cancel machinery. Tests use it to bound the
// queue's bookkeeping overhead.
func (e *Engine) PendingRaw() int { return len(e.queue) }

// eventBatch is how many event structs one freelist refill allocates;
// amortizes allocation to ~1/eventBatch per scheduled event.
const eventBatch = 128

func (e *Engine) alloc() *event {
	if e.free == nil {
		batch := make([]event, eventBatch)
		for i := range batch[:eventBatch-1] {
			batch[i].next = &batch[i+1]
		}
		e.free = &batch[0]
	}
	ev := e.free
	e.free = ev.next
	ev.next = nil
	return ev
}

// release returns a fired or discarded event to the freelist. The seq is
// left in place so stale handles keep failing their generation check
// only once the struct is reused; the handler is dropped so it can be
// collected.
func (e *Engine) release(ev *event) {
	ev.h = nil
	ev.label = ""
	ev.queued = false
	ev.next = e.free
	e.free = ev
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) panics: it would silently reorder causality.
func (e *Engine) At(t float64, label string, fn func()) Handle {
	return e.Schedule(t, label, Func(fn))
}

// Schedule is At for a Handler: h.Fire runs at absolute virtual time t.
// Handlers and functions share one queue and one sequence, so ties break
// in scheduling order whichever form scheduled them.
func (e *Engine) Schedule(t float64, label string, h Handler) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %.9f, before now %.9f", label, t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling %q at non-finite time %v", label, t))
	}
	ev := e.alloc()
	e.seq++
	ev.time, ev.seq, ev.h, ev.label = t, e.seq, h, label
	ev.canceled, ev.queued = false, true
	e.push(ev)
	return Handle{ev: ev, seq: ev.seq}
}

// After schedules fn to run delay seconds from now. Negative delays panic.
func (e *Engine) After(delay float64, label string, fn func()) Handle {
	return e.At(e.now+delay, label, fn)
}

// Cancel prevents a pending event from firing. Canceling a zero handle,
// an event that has already fired or been canceled, or a stale handle
// whose event struct was recycled, is a no-op. The event is only marked:
// it is discarded when it reaches the top of the heap, or by a
// compaction pass once canceled events dominate the queue.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.seq != h.seq || !ev.queued || ev.canceled {
		return
	}
	ev.canceled = true
	e.nCancel++
	if e.nCancel > compactMinCancels && e.nCancel*2 > len(e.queue) {
		e.compact()
	}
}

// compact removes every canceled event from the queue in one pass and
// restores the heap property, bounding queue growth under cancel-heavy
// workloads (each canceled event is touched at most once here, so the
// cost stays amortized O(1) per cancel).
func (e *Engine) compact() {
	q := e.queue[:0]
	for _, ev := range e.queue {
		if ev.canceled {
			e.release(ev)
		} else {
			q = append(q, ev)
		}
	}
	for i := len(q); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = q
	e.nCancel = 0
	for i := len(q)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

func less(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (e *Engine) push(ev *event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	e.queue = q
}

func (e *Engine) pop() *event {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 1 {
		e.siftDown(0)
	}
	ev.queued = false
	return ev
}

func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && less(q[r], q[l]) {
			m = r
		}
		if !less(q[m], q[i]) {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// SetEventHook installs an observer called for every dispatched event
// (after the clock advances, before the callback runs) with the event's
// time and label. The hook must not schedule or cancel events; it
// exists so tracers can watch the scheduler. Pass nil to remove.
func (e *Engine) SetEventHook(hook func(t float64, label string)) { e.hook = hook }

// Step executes the next pending event, advancing the clock. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.pop()
		if ev.canceled {
			e.nCancel--
			e.release(ev)
			continue
		}
		e.now = ev.time
		e.processed++
		h := ev.h
		if e.hook != nil {
			e.hook(ev.time, ev.label)
		}
		h.Fire()
		// Recycle only after Fire returns: handles to the firing event stay
		// generation-valid during the callback (a ticker canceling itself
		// from inside its own tick must remain a no-op, not hit a reused
		// struct).
		e.release(ev)
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = e.fault != nil
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with time <= t and then sets the clock to t.
// Events scheduled exactly at t do run.
func (e *Engine) RunUntil(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%.9f) before now %.9f", t, e.now))
	}
	e.stopped = e.fault != nil
	for !e.stopped {
		next := e.peek()
		if next == nil || next.time > t {
			break
		}
		e.Step()
	}
	// A faulted engine keeps its clock at the violation instant instead of
	// jumping to the horizon.
	if e.fault == nil && e.now < t {
		e.now = t
	}
}

func (e *Engine) peek() *event {
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if !ev.canceled {
			return ev
		}
		e.pop()
		e.nCancel--
		e.release(ev)
	}
	return nil
}

// Stop makes the innermost Run or RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Fail records a fault (the first one wins) and stops the engine. Invariant
// checkers use it to freeze the simulation at the instant a violation is
// detected, so the clock and queue state remain inspectable. A faulted
// engine refuses to resume: Run and RunUntil return immediately.
func (e *Engine) Fail(err error) {
	if err == nil {
		return
	}
	if e.fault == nil {
		e.fault = err
	}
	e.stopped = true
}

// Err returns the fault recorded by Fail, or nil.
func (e *Engine) Err() error { return e.fault }

// Ticker fires a callback at a fixed period until stopped.
type Ticker struct {
	eng    *Engine
	period float64
	fn     func(now float64)
	ev     Handle
	label  string
	done   bool
}

// Every schedules fn to run every period seconds, first at now+period.
// The returned Ticker can be stopped. A non-positive period panics.
func (e *Engine) Every(period float64, label string, fn func(now float64)) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: ticker %q with period %v", label, period))
	}
	t := &Ticker{eng: e, period: period, fn: fn, label: label}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.ev = t.eng.Schedule(t.eng.now+t.period, t.label, (*tick)(t))
}

// tick is a Ticker as the event of its next tick, so a tick allocates
// nothing.
type tick Ticker

func (k *tick) Fire() {
	t := (*Ticker)(k)
	if t.done {
		return
	}
	t.fn(t.eng.Now())
	if !t.done {
		t.schedule()
	}
}

// Stop cancels future ticks. Safe to call multiple times.
func (t *Ticker) Stop() {
	if t.done {
		return
	}
	t.done = true
	t.eng.Cancel(t.ev)
}

// Exponential draws from an exponential distribution with the given mean,
// using the engine's random source.
func (e *Engine) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return e.rng.ExpFloat64() * mean
}

// Uniform draws uniformly from [lo, hi).
func (e *Engine) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + e.rng.Float64()*(hi-lo)
}
