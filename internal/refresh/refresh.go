// Package refresh is the deterministic refreshable-configuration
// substrate: typed, subscribable views over live sub-configurations,
// plus a hub that funnels every configuration change — scripted
// operator schedules, chaos events, live admin POSTs — through one
// validated, traced application point on the simulation goroutine.
//
// The determinism contract mirrors the rest of the platform:
//
//   - Views are mutated only from the simulation goroutine, at an exact
//     virtual tick, and subscribers fire synchronously in registration
//     order — so a configuration change is an event in the trajectory,
//     not a data race against it.
//   - Scripted changes (operator schedules, chaos "config" events) are
//     scheduled as engine events at fixed virtual times; equal seeds
//     with equal schedules replay byte-identically.
//   - Live HTTP submissions land in a pending queue and are drained at
//     the next drain tick. They are inherently wall-clock-timed, so
//     only serve-mode runs use them; headless replays script the same
//     changes through an operator schedule instead.
//
// Every application emits a "config" trace span carrying the source,
// the patch and the outcome, so retunes are first-class causal events
// in the telemetry record.
package refresh

import (
	"errors"
	"sync"
	"sync/atomic"

	"jade/internal/trace"
)

// View is a subscribable handle on one live sub-configuration. Managers
// hold a *View[T] instead of a copied struct: Get returns the current
// value, Subscribe registers a callback fired synchronously (in
// registration order, on the simulation goroutine) whenever the value
// is replaced.
//
// The value+generation pair is published behind one atomic pointer so
// the read path — the only part managers touch on their loop ticks — is
// a single load and a struct copy, lock-free (the benchmark's
// refresh.driver_get_ns); a mutex here costs ~7x as much.
type View[T any] struct {
	name string
	cur  atomic.Pointer[viewState[T]]
	mu   sync.Mutex // serializes Set and guards subs
	subs []func(now float64, old, cur T)
}

// viewState is one immutable published snapshot of a view.
type viewState[T any] struct {
	val T
	gen uint64
}

// NewView builds a view seeded with the initial value.
func NewView[T any](name string, initial T) *View[T] {
	v := &View[T]{name: name}
	v.cur.Store(&viewState[T]{val: initial})
	return v
}

// Name identifies the view (the sub-configuration path it covers).
func (v *View[T]) Name() string { return v.name }

// Get returns the current value. Safe from any goroutine; the common
// caller is a manager reading its sub-config on a loop tick.
func (v *View[T]) Get() T { return v.cur.Load().val }

// Generation counts how many times Set replaced the value (0 initially).
func (v *View[T]) Generation() uint64 { return v.cur.Load().gen }

// Subscribe registers fn to run on every Set, synchronously and in
// registration order. Subscribers run on the goroutine calling Set (the
// simulation goroutine), so they may mutate managed state directly.
func (v *View[T]) Subscribe(fn func(now float64, old, cur T)) {
	v.mu.Lock()
	v.subs = append(v.subs, fn)
	v.mu.Unlock()
}

// Set replaces the value at virtual time now and fires the subscribers.
// Simulation goroutine only.
func (v *View[T]) Set(now float64, val T) {
	v.mu.Lock()
	old := v.cur.Load()
	v.cur.Store(&viewState[T]{val: val, gen: old.gen + 1})
	subs := v.subs
	v.mu.Unlock()
	for _, fn := range subs {
		fn(now, old.val, val)
	}
}

// Configuration-change sources, recorded on the trace span and the
// applied-changes log.
const (
	SourceOperator = "operator" // scripted Spec.Operator schedule
	SourceAdmin    = "admin"    // live POST /config
	SourceChaos    = "chaos"    // chaos schedule "config" event
)

// ErrClosed is returned by Enqueue once the run has completed and the
// configuration is frozen.
var ErrClosed = errors.New("refresh: run complete; configuration frozen")

// Submission is one queued live configuration change.
type Submission struct {
	Source string
	Patch  []byte
}

// Hub funnels every configuration change through one application point.
// Bind installs the owner's check (any goroutine, read-only) and apply
// (simulation goroutine, authoritative) callbacks; Enqueue accepts live
// submissions from HTTP handlers; Drain and Apply run on the simulation
// goroutine.
type Hub struct {
	tr *trace.Tracer

	mu       sync.Mutex
	check    func(source string, patch []byte) error
	apply    func(now float64, source string, patch []byte) error
	pending  []Submission
	applied  int
	rejected int
	closed   bool
}

// NewHub builds a hub emitting "config" spans on tr (which may be nil).
func NewHub(tr *trace.Tracer) *Hub { return &Hub{tr: tr} }

// Bind installs the callbacks. check validates a patch against the last
// published state and must be safe from any goroutine; apply validates
// authoritatively and commits, simulation goroutine only.
func (h *Hub) Bind(check func(source string, patch []byte) error, apply func(now float64, source string, patch []byte) error) {
	h.mu.Lock()
	h.check, h.apply = check, apply
	h.mu.Unlock()
}

// Enqueue validates a live submission and queues it for the next drain
// tick. Safe from any goroutine. The validation here is advisory (it
// reads the last published state); the authoritative check re-runs at
// application time on the simulation goroutine.
func (h *Hub) Enqueue(source string, patch []byte) error {
	h.mu.Lock()
	closed, check := h.closed, h.check
	h.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if check != nil {
		if err := check(source, patch); err != nil {
			return err
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	h.pending = append(h.pending, Submission{Source: source, Patch: append([]byte(nil), patch...)})
	return nil
}

// Drain applies every pending live submission in arrival order.
// Simulation goroutine only. Returns how many submissions it applied
// (successfully or not).
func (h *Hub) Drain(now float64) int {
	h.mu.Lock()
	pending := h.pending
	h.pending = nil
	h.mu.Unlock()
	for _, s := range pending {
		h.Apply(now, s.Source, s.Patch) //nolint:errcheck // outcome recorded on the span and counters
	}
	return len(pending)
}

// Apply runs one configuration change through the bound applier,
// wrapped in a "config" trace span carrying source, patch and outcome.
// Simulation goroutine only.
func (h *Hub) Apply(now float64, source string, patch []byte) error {
	h.mu.Lock()
	apply := h.apply
	h.mu.Unlock()
	span := h.tr.Begin(0, "config", source, trace.F("patch", string(patch)))
	var err error
	if apply == nil {
		err = errors.New("refresh: no applier bound")
	} else {
		err = apply(now, source, patch)
	}
	h.tr.End(span, trace.Outcome(err))
	h.mu.Lock()
	if err != nil {
		h.rejected++
	} else {
		h.applied++
	}
	h.mu.Unlock()
	return err
}

// Close freezes the configuration: further Enqueue calls fail with
// ErrClosed. Queued-but-undrained submissions are dropped.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	h.pending = nil
	h.mu.Unlock()
}

// Stats reports the applied/rejected/pending counts.
func (h *Hub) Stats() (applied, rejected, pending int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.applied, h.rejected, len(h.pending)
}
