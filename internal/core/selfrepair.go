package core

import (
	"errors"

	"jade/internal/cluster"
	"jade/internal/fractal"
	"jade/internal/legacy"
	"jade/internal/trace"
)

// serving reports whether the component's legacy process is still alive
// and able to serve its identity (the double-repair invariant's probe).
func serving(comp *fractal.Component) (bool, string) {
	var st legacy.State
	switch w := comp.Content().(type) {
	case *TomcatWrapper:
		st = w.srv.State()
	case *MySQLWrapper:
		st = w.srv.State()
	case *ApacheWrapper:
		st = w.srv.State()
	}
	if st == legacy.Running || st == legacy.Starting {
		return true, "legacy process " + st.String()
	}
	return false, ""
}

// discard removes a suspected-dead replica from the balancer, the
// architecture and the bookkeeping. When the node is actually alive — a
// false-positive suspicion — retire kills the legacy process before the
// identity is handed back, so the repaired tier can never end up with two
// live replicas claiming one name (the split-brain the DoubleRepair
// invariant checks for). The failed node returns to the pool; Allocate
// skips failed nodes until an operator reboots them.
func (t *Tier) discard(name string, comp *fractal.Component) error {
	// Tell the balancer the member is gone (the C-JDBC controller may not
	// have noticed yet if no query touched the dead replica), then remove
	// the architectural binding if still present.
	if t.kind.evict != nil {
		t.kind.evict(t, name)
	}
	for _, b := range t.balancer.Bindings(t.kind.members) {
		if b.ServerItf.Owner() == comp {
			if err := t.balancer.Unbind(t.kind.members, b.ServerItf); err != nil {
				return err
			}
		}
	}
	if err := t.p.retire(t.d, name); err != nil {
		return err
	}
	t.dropReplica(name)
	t.p.repairDiscarded(t.kind.name, name, func() (bool, string) { return serving(comp) })
	t.p.reconfigured(t.kind.name + ":discard")
	return nil
}

// growWithRetry drives grow, retrying while the tier is busy with a
// concurrent reconfiguration (e.g. the self-optimization manager's): a
// repair must not silently drop the lost replica just because another
// actuation was in flight.
func (t *Tier) growWithRetry(grow func(func(error)), attempts int, done func(error)) {
	// The ambient cause is re-established around retries so the grow's
	// actuation span stays attached to the repair that triggered it even
	// after crossing a scheduler delay.
	cause := t.p.tracer.Cause()
	grow(func(err error) {
		if errors.Is(err, ErrTierBusy) && attempts > 1 {
			t.p.Eng.After(5, "selfrepair:retry", func() {
				t.p.tracer.WithCause(cause, func() {
					t.growWithRetry(grow, attempts-1, done)
				})
			})
			return
		}
		done(err)
	})
}

// Repair is the actuation of the self-recovery manager (the paper's
// second autonomic manager, Fig. 3; detailed in ref [4]): discard the
// named failed replica, then grow the tier back on a newly allocated node.
// A database replacement synchronizes through the recovery log as usual.
func (t *Tier) Repair(name string, done func(error)) {
	span := t.p.tracer.Begin(0, "actuate", t.kind.name+":repair", trace.F("replica", name))
	finish := func(err error) {
		t.p.endActuation(span, "selfrepair: "+t.kind.name+" repair of "+name, err, done)
	}
	comp, err := t.d.Component(name)
	if err == nil {
		err = t.discard(name, comp)
	}
	if err != nil {
		finish(err)
		return
	}
	t.p.tracer.EmitIn(span, "actuate.step", "discarded", trace.F("replica", name))
	t.p.logf("selfrepair: %s discarded failed replica %s, reallocating", t.kind.name, name)
	t.p.tracer.WithCause(span, func() {
		t.growWithRetry(t.Grow, 12, finish)
	})
}

// Suspector is a pluggable failure detector for the recovery manager
// (implemented by netsim.Detector). Monitor puts a replica under watch,
// Forget drops it, Suspected reports the current suspicion verdict.
// Unlike the default oracle, a Suspector may be late or wrong: the
// manager repairs whatever it suspects, and the DoubleRepair invariant
// checks that acting on a false positive stays legal.
type Suspector interface {
	Monitor(name string, node *cluster.Node)
	Forget(name string)
	Suspected(name string) bool
}

// RecoveryManager is the self-recovery autonomic manager: a heartbeat
// failure detector driving repair actuators, one replica at a time. It is
// both the loop's sensor (counting failed replica nodes) and its reactor.
type RecoveryManager struct {
	p     *Platform
	Loop  *ControlLoop
	tiers []*Tier
	busy  bool

	// Suspector, when set, replaces the perfect node-state oracle with a
	// heartbeat suspicion detector; membership is reconciled on every
	// sensor pass. When nil the manager reads node state directly (the
	// pre-netsim behavior).
	Suspector Suspector
	monitored map[string]bool

	// Arbiter, when set, gates repairs through the arbitration manager
	// with Priority (default PriorityRecovery: repairs preempt
	// optimization's quiet windows, never the reverse).
	Arbiter  *Arbiter
	Priority int

	// Repairs counts completed repairs.
	Repairs uint64
	// OnRepair (optional) observes completed repairs.
	OnRepair func(tier, replica string)
}

// NewRecoveryManager assembles (but does not start) the self-recovery
// manager over the given tiers.
func NewRecoveryManager(p *Platform, name string, period float64, tiers ...*Tier) (*RecoveryManager, error) {
	m := &RecoveryManager{p: p, tiers: tiers, Priority: PriorityRecovery}
	loop, err := NewControlLoop(p, name, period, m, m)
	if err != nil {
		return nil, err
	}
	m.Loop = loop
	return m, nil
}

// Sample implements Sensor: it counts failed replicas across tiers.
func (m *RecoveryManager) Sample(now float64) (float64, bool) {
	return float64(len(m.failedReplicas())), true
}

type failedReplica struct {
	tier *Tier
	name string
}

// failedReplicas lists the replicas to repair: those on a failed node, or
// with a Suspector those it suspects — its membership is reconciled with
// the tiers' current replicas on the way.
func (m *RecoveryManager) failedReplicas() []failedReplica {
	var out []failedReplica
	var current map[string]bool
	if m.Suspector != nil {
		current = make(map[string]bool)
	}
	for _, t := range m.tiers {
		for _, name := range t.replicas {
			node := t.NodeOf(name)
			if node == nil {
				continue
			}
			failed := node.Failed()
			if m.Suspector != nil {
				current[name] = true
				m.Suspector.Monitor(name, node)
				failed = m.Suspector.Suspected(name)
			}
			if failed {
				out = append(out, failedReplica{tier: t, name: name})
			}
		}
	}
	for name := range m.monitored {
		if !current[name] {
			m.Suspector.Forget(name)
		}
	}
	m.monitored = current
	return out
}

// React implements Reactor: repair the first failed replica, one repair
// in flight at a time.
func (m *RecoveryManager) React(now float64, v float64) {
	if m.busy || v == 0 {
		return
	}
	failed := m.failedReplicas()
	if len(failed) == 0 {
		return
	}
	f := failed[0]
	if m.Arbiter != nil && !m.Arbiter.Request(now, "self-recovery", m.Priority) {
		return // retried on the next loop period
	}
	tr := m.p.tracer
	fields := []trace.Field{
		trace.F("tier", f.tier.TierName()),
		trace.F("replica", f.name),
		trace.Fi("failed", len(failed)),
	}
	if m.Loop != nil {
		if id := m.Loop.LastSampleEvent(); id != 0 {
			fields = append(fields, trace.Fid("sample", id))
		}
	}
	dec := tr.Begin(0, "decision", f.tier.TierName()+":repair", fields...)
	m.busy = true
	m.p.logf("selfrepair: detected failure of %s (%s), repairing", f.name, f.tier.TierName())
	tr.WithCause(dec, func() {
		f.tier.Repair(f.name, func(err error) {
			m.busy = false
			if err == nil {
				m.Repairs++
				if m.OnRepair != nil {
					m.OnRepair(f.tier.TierName(), f.name)
				}
			} else {
				m.p.logf("selfrepair: repair of %s failed: %v", f.name, err)
			}
			tr.End(dec, trace.Outcome(err))
		})
	})
}
