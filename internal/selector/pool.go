package selector

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Suspector is the subset of the platform's failure-suspicion interface
// the pool consumes (satisfied by netsim.Detector via core.Suspector).
type Suspector interface {
	Suspected(name string) bool
}

// Options tunes a pool and its policy.
type Options struct {
	// Policy is the selection strategy (RoundRobin by default).
	Policy Policy
	// Now is the virtual clock (sim.Engine.Now). Nil reads as a frozen
	// clock at 0: reservoirs never decay and down backends are never
	// probed.
	Now func() float64
	// HalfLifeSeconds is the decay half-life of the failure and latency
	// reservoirs (30 by default).
	HalfLifeSeconds float64
	// ProbeAfterSeconds is how long a suspected-down backend stays
	// unpicked before the pool lets a single probe request through to
	// test it (10 by default; probes repeat every interval until one
	// succeeds or the suspicion is withdrawn).
	ProbeAfterSeconds float64
}

// DefaultOptions returns the framework defaults for a policy.
func DefaultOptions(p Policy) Options {
	return Options{
		Policy:            p,
		HalfLifeSeconds:   30,
		ProbeAfterSeconds: 10,
	}
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	d := DefaultOptions(o.Policy)
	if o.HalfLifeSeconds <= 0 {
		o.HalfLifeSeconds = d.HalfLifeSeconds
	}
	if o.ProbeAfterSeconds <= 0 {
		o.ProbeAfterSeconds = d.ProbeAfterSeconds
	}
	return o
}

// Pool is the stateful backend set behind one balancer: it owns the
// per-backend bookkeeping (in-flight counts, decay reservoirs, down
// marks), runs the configured Selector over the eligible backends, and
// schedules probe requests that bring suspected-down backends back in.
//
// The simulation goroutine is the only mutator; the mutex exists so
// concurrent read-only observers (the admin plane, race tests) can take
// consistent snapshots without perturbing the run.
type Pool struct {
	mu      sync.Mutex
	opts    Options
	sel     Selector
	entries []*Backend
	// elig is Pick's candidate list, rebuilt on every call (under mu, for
	// the length of the call) so that picking allocates nothing.
	elig    []*Backend
	onEvict []func(name string)
	// lastNow caches the virtual clock as of the latest mutator call.
	// Observer methods read it instead of opts.Now, which belongs to the
	// simulation goroutine and must never be called concurrently with it.
	lastNow float64
}

// New creates an empty pool.
func New(opts Options) *Pool {
	opts = opts.withDefaults()
	return &Pool{opts: opts, sel: newSelector(opts)}
}

// Policy returns the pool's configured policy.
func (p *Pool) Policy() Policy {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.opts.Policy
}

// SetPolicy swaps the selection strategy live, rebuilding the selector
// over the unchanged backend bookkeeping: in-flight counts, decay
// reservoirs and down marks all survive the swap, so a mid-run policy
// change takes effect on the very next Pick. Simulation goroutine only
// (the runtime-configuration plane's routing view drives it).
func (p *Pool) SetPolicy(policy Policy) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if policy == p.opts.Policy {
		return
	}
	p.opts.Policy = policy
	p.sel = newSelector(p.opts)
}

func (p *Pool) now() float64 {
	if p.opts.Now != nil {
		p.lastNow = p.opts.Now()
	}
	return p.lastNow
}

func (p *Pool) lookup(name string) *Backend {
	for _, b := range p.entries {
		if b.name == name {
			return b
		}
	}
	return nil
}

// Add registers a backend with a positive weight.
func (p *Pool) Add(name string, weight int) error {
	if weight <= 0 {
		return fmt.Errorf("%w: %d for %s", ErrBadWeight, weight, name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lookup(name) != nil {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	p.entries = append(p.entries, &Backend{name: name, weight: weight, credit: weight})
	return nil
}

// Remove unregisters a backend cleanly (shrink, unbind) and fires the
// eviction hooks so affinity tables drop their entries.
func (p *Pool) Remove(name string) error {
	if !p.remove(name) {
		return fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	return nil
}

// Discard drops a backend that has been fenced or declared dead. Unlike
// Remove it is idempotent: discarding an unknown name is a no-op (the
// repair path may race a clean leave). Eviction hooks fire either way a
// backend leaves, so sticky sessions can never keep routing to it.
func (p *Pool) Discard(name string) {
	p.remove(name)
}

func (p *Pool) remove(name string) bool {
	p.mu.Lock()
	found := false
	for i, b := range p.entries {
		if b.name == name {
			p.entries = append(p.entries[:i], p.entries[i+1:]...)
			found = true
			break
		}
	}
	hooks := p.onEvict
	p.mu.Unlock()
	if found {
		// Outside the lock: hooks may re-enter the pool.
		for _, fn := range hooks {
			fn(name)
		}
	}
	return found
}

// OnEvict registers a hook fired (outside the pool lock) whenever a
// backend leaves the pool, by Remove or Discard. The PLB session table
// and the C-JDBC controller subscribe here to evict affinity entries
// for departed backends.
func (p *Pool) OnEvict(fn func(name string)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onEvict = append(p.onEvict, fn)
}

// Has reports whether a backend is registered.
func (p *Pool) Has(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lookup(name) != nil
}

// Healthy reports whether a backend is registered and not marked down.
func (p *Pool) Healthy(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.lookup(name)
	return b != nil && !b.down
}

// Len returns the number of registered backends.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Names returns the registered backend names, sorted.
func (p *Pool) Names() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.entries))
	for _, b := range p.entries {
		out = append(out, b.name)
	}
	sort.Strings(out)
	return out
}

// Pendings returns every backend's in-flight count, keyed by name.
// Invariant checkers verify the counts never go negative.
func (p *Pool) Pendings() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.entries))
	for _, b := range p.entries {
		out[b.name] = b.inflight
	}
	return out
}

// Pick selects a backend for a request carrying the given affinity key
// (empty when the request has none). A suspected-down backend is never
// picked while a healthy one exists, with one exception: a backend that
// has been down for ProbeAfterSeconds gets a single probe request
// through; its outcome (reported via Release) decides whether it comes
// back. When every backend is down, Pick degrades to selecting among
// all of them — guessing beats refusing. Returns false only when the
// pool is empty.
func (p *Pool) Pick(key string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.entries) == 0 {
		return "", false
	}
	now := p.now()
	// A due probe preempts the policy: one request tests the backend.
	for _, b := range p.entries {
		if b.down && !b.probing && now-b.downSince >= p.opts.ProbeAfterSeconds {
			b.probing = true
			return b.name, true
		}
	}
	elig := p.elig[:0]
	for _, b := range p.entries {
		if !b.down {
			elig = append(elig, b)
		}
	}
	if len(elig) == 0 {
		elig = append(elig, p.entries...)
	}
	p.elig = elig
	b := p.sel.Pick(elig, Context{Key: key, Now: now})
	return b.name, true
}

// Acquire records a request dispatched to a backend. No-op for a name
// no longer in the pool.
func (p *Pool) Acquire(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b := p.lookup(name); b != nil {
		b.inflight++
	}
}

// Release records a request's completion: its latency feeds the decay
// reservoirs, a failure counts against the backend, and a probe's
// outcome decides whether a down backend returns to rotation. No-op for
// a name no longer in the pool (its entry left while the request was in
// flight).
func (p *Pool) Release(name string, latencySeconds float64, failed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.lookup(name)
	if b == nil {
		return
	}
	if b.inflight > 0 {
		b.inflight--
	}
	now := p.now()
	if failed {
		b.failed++
		b.fail.halfLife = p.opts.HalfLifeSeconds
		b.fail.add(now, 1)
		if b.probing {
			// Probe failed: stay down, rearm the probe timer.
			b.probing = false
			b.downSince = now
		}
		return
	}
	b.served++
	if latencySeconds >= 0 {
		b.lat.halfLife = p.opts.HalfLifeSeconds
		b.latN.halfLife = p.opts.HalfLifeSeconds
		b.lat.add(now, latencySeconds)
		b.latN.add(now, 1)
	}
	if b.down {
		// A success (probe or straggler) clears the suspicion locally;
		// SyncSuspicions may re-mark it on the next detector pass.
		b.down = false
		b.probing = false
	}
}

// SyncSuspicions reconciles every backend's down mark with the failure
// detector: suspected backends go down, cleared ones come back. The
// platform calls this on each sensor pass when a detector is armed.
func (p *Pool) SyncSuspicions(s Suspector) {
	if s == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	for _, b := range p.entries {
		suspected := s.Suspected(b.name)
		if suspected && !b.down {
			b.down = true
			b.probing = false
			b.downSince = now
		} else if !suspected && b.down {
			b.down = false
			b.probing = false
		}
	}
}

// Status is one backend's introspection snapshot.
type Status struct {
	Name     string
	Weight   int
	InFlight int
	Served   uint64
	Failed   uint64
	Down     bool
	Score    float64
	// Decayed reservoir views at the cached clock: the exponentially
	// decayed mean request latency in seconds (0 until a sample lands),
	// the decayed sample count behind it, and the decayed failure count.
	// These are what the alerting plane's pool-skew rules compare across
	// backends — a gray replica's reservoirs diverge long before the
	// failure detector sees anything.
	MeanLatency    float64
	LatencySamples float64
	DecayedFails   float64
}

// Snapshot returns a consistent view of every backend in registration
// order. Reading scores is pure and the clock is the cached one, so a
// concurrent scraper can never perturb a deterministic run (or race the
// engine's clock).
func (p *Pool) Snapshot() []Status { return p.AppendSnapshot(nil) }

// AppendSnapshot appends Snapshot's view to dst and returns it, so that a
// caller reading every tick can reuse one buffer.
func (p *Pool) AppendSnapshot(dst []Status) []Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.lastNow
	out := slices.Grow(dst, len(p.entries))
	for _, b := range p.entries {
		st := Status{
			Name:     b.name,
			Weight:   b.weight,
			InFlight: b.inflight,
			Served:   b.served,
			Failed:   b.failed,
			Down:     b.down,
			Score:    b.Score(now),
		}
		st.LatencySamples = b.latN.valueAt(now)
		if st.LatencySamples > 1e-9 {
			st.MeanLatency = b.lat.valueAt(now) / st.LatencySamples
		}
		st.DecayedFails = b.fail.valueAt(now)
		out = append(out, st)
	}
	return out
}
