package sim

import "fmt"

// TickBarrier is the coarse-grained companion of the event heap: a fixed
// virtual-time tick on which registered model functions run back to back
// in registration order. Fluid-flow workload models use it to exchange
// request rates and queue-theoretic estimates between tiers — however
// many components participate, the barrier costs the heap exactly one
// event per tick, keeping the hot loop independent of the fluid model's
// size.
//
// Determinism: functions run in registration order at identical virtual
// times, and every tick sees the same (now, dt) sequence for a given
// period, so a fluid model driven only by barrier ticks replays
// byte-identically across runs with the same seed.
type TickBarrier struct {
	eng    *Engine
	period float64
	label  string
	fns    []barrierFn
	ticker *Ticker
	last   float64
	ticks  uint64
}

type barrierFn struct {
	name string
	fn   func(now, dt float64)
}

// NewTickBarrier creates a stopped barrier with the given period in
// virtual seconds. A non-positive period panics.
func NewTickBarrier(eng *Engine, period float64, label string) *TickBarrier {
	if period <= 0 {
		panic(fmt.Sprintf("sim: tick barrier %q with period %v", label, period))
	}
	return &TickBarrier{eng: eng, period: period, label: label}
}

// Register adds fn to the barrier; at every tick it receives the current
// virtual time and the elapsed time since the previous tick. Functions
// run in registration order. Registering after Start is allowed: the new
// function joins at the next tick.
func (b *TickBarrier) Register(name string, fn func(now, dt float64)) {
	b.fns = append(b.fns, barrierFn{name: name, fn: fn})
}

// Start begins ticking; the first tick fires one period from now.
// Starting a started barrier is a no-op.
func (b *TickBarrier) Start() {
	if b.ticker != nil {
		return
	}
	b.last = b.eng.Now()
	b.ticker = b.eng.Every(b.period, b.label, b.tick)
}

func (b *TickBarrier) tick(now float64) {
	dt := now - b.last
	b.last = now
	b.ticks++
	for _, f := range b.fns {
		f.fn(now, dt)
	}
}

// Stop cancels future ticks. Safe to call multiple times.
func (b *TickBarrier) Stop() {
	if b.ticker == nil {
		return
	}
	b.ticker.Stop()
	b.ticker = nil
}

// Ticks returns the number of ticks executed so far.
func (b *TickBarrier) Ticks() uint64 { return b.ticks }
