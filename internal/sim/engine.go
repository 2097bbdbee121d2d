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
// written for throughput. The queue is a binary heap plus fixed-delay
// lanes. The heap is specialized to event pointers (no container/heap
// interface boxing) and takes any time. A lane (Engine.Lane) is a FIFO of
// events scheduled one constant delay ahead: the clock never goes back,
// so a lane is already in (time, seq) order, and scheduling onto it is an
// append and taking from it a head advance, neither a heap operation.
// The next event is the least of the heap's top and the lanes' heads on
// (time, seq), so ties break in scheduling order across all of them.
// Event structs are batch-allocated and recycled through a freelist, and
// Cancel is a lazy mark: a canceled event is discarded when it surfaces
// at the front of its heap or lane (with a compaction pass when canceled
// events pile up in one) instead of an O(log n) removal per cancel.
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
	lane     uint32 // index+1 in Engine.lanes of the lane holding it; 0: the heap
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
// compaction pass over the heap or a lane runs only once more than this
// many canceled events are parked in it AND they outnumber its live
// events (nCancel*2 > its length). The floor keeps tiny queues from
// compacting on every cancel; the majority rule bounds each at roughly 2x
// its live events, so cancel-heavy workloads (the cluster-node reschedule
// pattern, the fabric's RPC timers) stay amortized O(1) per cancel instead
// of drifting with queue growth.
const compactMinCancels = 64

// Engine is a single-threaded discrete-event executor with a virtual clock
// measured in seconds. The zero value is not usable; construct one with
// NewEngine.
type Engine struct {
	now     float64
	seq     uint64
	queue   []*event // binary min-heap on (time, seq)
	nCancel int      // canceled events still sitting in the heap
	lanes   []*Lane  // fixed-delay lanes, in creation order
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
// events still parked in the heap or a lane are not counted.
func (e *Engine) Pending() int {
	n := len(e.queue) - e.nCancel
	for _, l := range e.lanes {
		n += l.n - l.nCancel
	}
	return n
}

// PendingRaw returns the raw queue length, heap and lanes together,
// including canceled events not yet discarded by the lazy-cancel
// machinery. Tests use it to bound the queue's bookkeeping overhead.
func (e *Engine) PendingRaw() int {
	n := len(e.queue)
	for _, l := range e.lanes {
		n += l.n
	}
	return n
}

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
// Handlers and functions, on the heap or on a lane, share one sequence,
// so ties break in scheduling order whichever way they were scheduled.
func (e *Engine) Schedule(t float64, label string, h Handler) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %.9f, before now %.9f", label, t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling %q at non-finite time %v", label, t))
	}
	ev := e.newEvent(t, label, h, 0)
	e.push(ev)
	return Handle{ev: ev, seq: ev.seq}
}

// newEvent takes a struct off the freelist and stamps it with the next
// sequence number, for the heap (lane 0) or lane index lane-1.
func (e *Engine) newEvent(t float64, label string, h Handler, lane uint32) *event {
	ev := e.alloc()
	e.seq++
	ev.time, ev.seq, ev.h, ev.label, ev.lane = t, e.seq, h, label, lane
	ev.canceled, ev.queued = false, true
	return ev
}

// Lane is a FIFO of events that run a fixed delay after they are
// scheduled. Because the clock never goes back, Now()+delay never
// decreases and the sequence always grows, so the FIFO is already in
// (time, seq) order: an event scheduled on a lane fires exactly when, and
// in the same order among all events as, Schedule(Now()+delay, ...)
// would have fired it, at no heap operation.
type Lane struct {
	e       *Engine
	d       float64
	idx     uint32   // index+1 in e.lanes, stamped on the lane's events
	ring    []*event // ring buffer, length a power of two; n events from head
	head, n int
	nCancel int // canceled events still sitting in the lane
}

// Lane returns the engine's lane for delay d seconds, creating it on
// first use; every call with the same d returns the same lane. A
// negative or non-finite d panics.
func (e *Engine) Lane(d float64) *Lane {
	for _, l := range e.lanes {
		if l.d == d {
			return l
		}
	}
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		panic(fmt.Sprintf("sim: lane with delay %v", d))
	}
	l := &Lane{e: e, d: d, idx: uint32(len(e.lanes) + 1)}
	e.lanes = append(e.lanes, l)
	return l
}

// Schedule runs h at Now()+d, d the lane's delay. The handle is like any
// other: Cancel and Pending work on it as on a heap event's.
func (l *Lane) Schedule(label string, h Handler) Handle {
	e := l.e
	ev := e.newEvent(e.now+l.d, label, h, l.idx)
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = ev
	l.n++
	return Handle{ev: ev, seq: ev.seq}
}

// laneMinRing is a new lane's ring size.
const laneMinRing = 16

func (l *Lane) grow() {
	ring := make([]*event, max(laneMinRing, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// pop removes the lane's head.
func (l *Lane) pop() *event {
	ev := l.ring[l.head]
	l.ring[l.head] = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	ev.queued = false
	return ev
}

// compact removes every canceled event from the lane in one pass, keeping
// the rest in order: the heap's compaction, without the re-heapify.
func (l *Lane) compact() {
	mask := len(l.ring) - 1
	w := 0
	for i := 0; i < l.n; i++ {
		slot := (l.head + i) & mask
		ev := l.ring[slot]
		l.ring[slot] = nil
		if ev.canceled {
			l.e.release(ev)
		} else {
			l.ring[(l.head+w)&mask] = ev
			w++
		}
	}
	l.n, l.nCancel = w, 0
}

// After schedules fn to run delay seconds from now. Negative delays panic.
func (e *Engine) After(delay float64, label string, fn func()) Handle {
	return e.At(e.now+delay, label, fn)
}

// Cancel prevents a pending event from firing. Canceling a zero handle,
// an event that has already fired or been canceled, or a stale handle
// whose event struct was recycled, is a no-op. The event is only marked:
// it is discarded when it reaches the front of its heap or lane, or by a
// compaction pass once canceled events dominate that heap or lane.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.seq != h.seq || !ev.queued || ev.canceled {
		return
	}
	ev.canceled = true
	if ev.lane != 0 {
		l := e.lanes[ev.lane-1]
		l.nCancel++
		if l.nCancel > compactMinCancels && l.nCancel*2 > l.n {
			l.compact()
		}
		return
	}
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
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// fire takes ev, the next live event, off its heap or lane and runs it.
func (e *Engine) fire(ev *event) {
	e.take(ev)
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
}

// take removes ev, the front of its heap or lane, from it.
func (e *Engine) take(ev *event) {
	if ev.lane == 0 {
		e.pop()
	} else {
		e.lanes[ev.lane-1].pop()
	}
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
		e.fire(next)
	}
	// A faulted engine keeps its clock at the violation instant instead of
	// jumping to the horizon.
	if e.fault == nil && e.now < t {
		e.now = t
	}
}

// peek returns the next live event, the least of the heap's top and the
// lanes' heads on (time, seq), discarding canceled ones on the way; nil
// when nothing is pending.
func (e *Engine) peek() *event {
	for {
		var next *event
		if len(e.queue) > 0 {
			next = e.queue[0]
		}
		for _, l := range e.lanes {
			if l.n > 0 {
				if ev := l.ring[l.head]; next == nil || less(ev, next) {
					next = ev
				}
			}
		}
		if next == nil || !next.canceled {
			return next
		}
		e.take(next)
		if next.lane == 0 {
			e.nCancel--
		} else {
			e.lanes[next.lane-1].nCancel--
		}
		e.release(next)
	}
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
	// The conversion rounds the product, so no architecture fuses it with
	// the sum into one multiply-add: the draw is the same everywhere.
	return lo + float64(e.rng.Float64()*(hi-lo))
}
