// Package invariant is the deterministic simulation-testing harness: a
// pluggable set of machine-checkable predicates over the live managed
// architecture, each evaluated in full every virtual second (a sim ticker)
// and at every reconfiguration boundary. The chaos sweep that runs the
// harness over seeds and shrinks a failing schedule lives in the root
// package, where a run is its Spec.
//
// The paper's claim — that autonomic control loops can safely reconfigure
// a live cluster — only holds if the system preserves its invariants under
// every interleaving of load, reconfiguration and failure. The checkers
// here encode those invariants:
//
//   - C-JDBC replica-state consistency: backends at the same recovery-log
//     index have identical database fingerprints; applied indices and
//     checkpoint indices only move forward; the log never shrinks.
//   - Node CPU-share conservation: the sum of granted CPU shares never
//     exceeds a node's capacity, memory stays within budget, and failed
//     nodes hold no jobs or memory.
//   - Balancer/actuator agreement: every balancer member is a live,
//     started replica of its tier; when the tier is idle the member set
//     exactly matches the replica set; no member stays bound to a failed
//     node beyond the repair grace period; pending counts never go
//     negative.
//   - Fractal lifecycle legality: no STARTED component is bound to a
//     server interface whose owner is STOPPED.
//   - Arbiter legality: a quiet window may only be preempted by a
//     strictly higher priority (recovery preempts sizing, never the
//     reverse).
package invariant

import (
	"fmt"
	"math"

	"jade/internal/cjdbc"
	"jade/internal/cluster"
	"jade/internal/fractal"
	"jade/internal/sim"
)

// Checker is one registered invariant. Check returns a non-nil error when
// the invariant is violated at time now. boundary is true when the check
// runs at a reconfiguration boundary (deploy, grow, shrink, repair) rather
// than on the periodic ticker; every checker does the same, full work on
// both.
type Checker interface {
	Name() string
	Check(now float64, boundary bool) error
}

// Violation is the first invariant failure observed by a Harness.
type Violation struct {
	// Time is the virtual time of the violation.
	Time float64 `json:"time"`
	// Checker names the invariant that failed.
	Checker string `json:"checker"`
	// Event names the boundary that triggered the check ("tick" for
	// periodic checks).
	Event string `json:"event"`
	// Detail is the checker's error message.
	Detail string `json:"detail"`
	// Tail is the last few telemetry-bus events before the violation
	// (when the harness has a Tail source) — the flight recorder readout
	// attached to every replay artifact.
	Tail []string `json:"tail,omitempty"`
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("invariant %s violated at t=%.3f (%s): %s", v.Checker, v.Time, v.Event, v.Detail)
}

// Harness evaluates registered checkers on a periodic ticker and at every
// reconfiguration boundary (via CheckNow). The first violation is
// recorded and, by default, faults the engine so the simulation freezes
// at the violation instant.
type Harness struct {
	eng *sim.Engine
	// Period is the ticker interval in virtual seconds (default 1).
	Period float64
	// ContinueOnViolation keeps the simulation running after the first
	// violation instead of faulting the engine.
	ContinueOnViolation bool
	// Tail, when set, supplies the last n formatted telemetry events;
	// they are attached to every recorded violation (wire it to the
	// platform tracer's Tail method).
	Tail func(n int) []string
	// TailLines is how many events to attach (default 40).
	TailLines int

	checkers   []Checker
	ticker     *sim.Ticker
	first      *Violation
	checks     uint64
	boundaries uint64
}

// NewHarness builds a harness over the engine with a 1 s ticker period.
func NewHarness(eng *sim.Engine) *Harness {
	return &Harness{eng: eng, Period: 1}
}

// Register adds checkers to the harness.
func (h *Harness) Register(cs ...Checker) { h.checkers = append(h.checkers, cs...) }

// Start begins periodic checking. It may be called once.
func (h *Harness) Start() {
	if h.ticker != nil {
		panic("invariant: harness started twice")
	}
	h.ticker = h.eng.Every(h.Period, "invariant:tick", func(now float64) {
		h.run(now, false, "tick")
	})
}

// Stop cancels the periodic ticker.
func (h *Harness) Stop() {
	if h.ticker != nil {
		h.ticker.Stop()
	}
}

// CheckNow evaluates every checker immediately as a boundary check; the
// platform's OnReconfiguration hook calls it at each reconfiguration.
func (h *Harness) CheckNow(event string) {
	h.boundaries++
	h.run(h.eng.Now(), true, event)
}

func (h *Harness) run(now float64, boundary bool, event string) {
	if h.first != nil && !h.ContinueOnViolation {
		return
	}
	for _, c := range h.checkers {
		h.checks++
		if err := c.Check(now, boundary); err != nil {
			v := &Violation{Time: now, Checker: c.Name(), Event: event, Detail: err.Error()}
			if h.Tail != nil {
				n := h.TailLines
				if n <= 0 {
					n = 40
				}
				v.Tail = h.Tail(n)
			}
			if h.first == nil {
				h.first = v
			}
			if !h.ContinueOnViolation {
				h.eng.Fail(v)
				return
			}
		}
	}
}

// Violation returns the first recorded violation, or nil.
func (h *Harness) Violation() *Violation { return h.first }

// Checks returns the number of individual checker evaluations performed.
func (h *Harness) Checks() uint64 { return h.checks }

// Boundaries returns the number of reconfiguration-boundary check rounds.
func (h *Harness) Boundaries() uint64 { return h.boundaries }

// ---------------------------------------------------------------------------
// C-JDBC replica-state consistency

// CJDBCConsistency checks the database tier's replication invariants: the
// recovery log never shrinks, per-backend applied indices and per-backend
// checkpoints only move forward, every index stays within the log bounds,
// and active backends at the same applied index have identical state
// fingerprints, compared on every check: the engine maintains its
// fingerprint as it writes, so reading one costs a step per table.
type CJDBCConsistency struct {
	// Controller returns the live controller, or nil while it is down.
	Controller func() *cjdbc.Controller

	label       string
	lastLen     int64
	lastApplied map[string]int64
	lastCkpt    map[string]int64
}

// NewCJDBCConsistency builds the checker for one controller accessor.
func NewCJDBCConsistency(label string, controller func() *cjdbc.Controller) *CJDBCConsistency {
	return &CJDBCConsistency{
		Controller:  controller,
		label:       label,
		lastApplied: map[string]int64{},
		lastCkpt:    map[string]int64{},
	}
}

// Name implements Checker.
func (c *CJDBCConsistency) Name() string { return "cjdbc-consistency:" + c.label }

// Check implements Checker.
func (c *CJDBCConsistency) Check(now float64, boundary bool) error {
	ctl := c.Controller()
	if ctl == nil || !ctl.Running() {
		return nil
	}
	log := ctl.Log()
	n := log.Len()
	if n < c.lastLen {
		return fmt.Errorf("recovery log shrank from %d to %d records", c.lastLen, n)
	}
	c.lastLen = n

	// Checkpoints move only forward. A backend that rejoined has its
	// checkpoint dropped; names absent from the current map are forgotten
	// so a later re-checkpoint is compared against fresh history.
	ckpts := log.Checkpoints()
	for name := range c.lastCkpt {
		if _, ok := ckpts[name]; !ok {
			delete(c.lastCkpt, name)
		}
	}
	for name, idx := range ckpts {
		if idx < 0 || idx > n {
			return fmt.Errorf("checkpoint %d of %s outside log bounds [0,%d]", idx, name, n)
		}
		if prev, ok := c.lastCkpt[name]; ok && idx < prev {
			return fmt.Errorf("checkpoint of %s moved backwards: %d -> %d", name, prev, idx)
		}
		c.lastCkpt[name] = idx
	}

	// Applied indices move only forward while a backend stays registered.
	infos := ctl.Backends()
	present := make(map[string]bool, len(infos))
	for _, b := range infos {
		present[b.Name] = true
		if b.Applied < 0 || b.Applied > n {
			return fmt.Errorf("backend %s applied index %d outside log bounds [0,%d]", b.Name, b.Applied, n)
		}
		if prev, ok := c.lastApplied[b.Name]; ok && b.Applied < prev {
			return fmt.Errorf("backend %s applied index regressed: %d -> %d", b.Name, prev, b.Applied)
		}
		c.lastApplied[b.Name] = b.Applied
	}
	for name := range c.lastApplied {
		if !present[name] {
			delete(c.lastApplied, name)
		}
	}

	// State digests: every pair of active backends at the same applied
	// index must agree (state is a pure function of dump + log prefix).
	// Backends at different indices legitimately differ mid-broadcast.
	// infos is sorted by name, so the pair reported is the same every run.
	for i, b := range infos {
		if b.State != cjdbc.Active {
			continue
		}
		for _, a := range infos[:i] {
			if a.State == cjdbc.Active && a.Applied == b.Applied && a.Fingerprint != b.Fingerprint {
				return fmt.Errorf("state divergence at log index %d: %s fingerprint %016x != %s fingerprint %016x",
					b.Applied, a.Name, a.Fingerprint, b.Name, b.Fingerprint)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Node CPU-share conservation

// NodeConservation checks every node in the pool: granted CPU shares
// never exceed capacity, memory usage stays within [0, MemoryMB], and a
// failed node holds no jobs and no memory.
type NodeConservation struct {
	// Nodes returns the nodes to check.
	Nodes func() []*cluster.Node
}

// NewNodeConservation builds the checker over a node pool.
func NewNodeConservation(pool *cluster.Pool) *NodeConservation {
	return &NodeConservation{Nodes: pool.Nodes}
}

// Name implements Checker.
func (c *NodeConservation) Name() string { return "node-conservation" }

// Check implements Checker.
func (c *NodeConservation) Check(now float64, boundary bool) error {
	const eps = 1e-9
	for _, n := range c.Nodes() {
		cfg := n.Config()
		if g := n.GrantedShares(); g > cfg.CPUCapacity+eps {
			return fmt.Errorf("node %s grants %.9f CPU shares over capacity %.9f", n.Name(), g, cfg.CPUCapacity)
		}
		mem := n.MemoryUsed()
		if mem < -eps || mem > cfg.MemoryMB+eps || math.IsNaN(mem) {
			return fmt.Errorf("node %s memory %.3f MB outside [0,%.0f]", n.Name(), mem, cfg.MemoryMB)
		}
		if n.Failed() {
			if n.ActiveJobs() != 0 {
				return fmt.Errorf("failed node %s still runs %d jobs", n.Name(), n.ActiveJobs())
			}
			if mem > eps {
				return fmt.Errorf("failed node %s still holds %.3f MB", n.Name(), mem)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Balancer / actuator agreement

// TierView is the slice of the actuator surface the agreement checker
// needs (satisfied by *core.Tier).
type TierView interface {
	TierName() string
	ReplicaNames() []string
	Reconfiguring() bool
}

// BalancerAgreement checks that one balancer's member set agrees with its
// tier actuator: every member is a registered replica backed by a started
// component; when the tier is idle the member set equals the set of
// started replicas on healthy nodes; no member stays bound to a failed
// node longer than FailedGrace (self-recovery needs time to repair); and
// per-member pending counts never go negative.
type BalancerAgreement struct {
	// Members returns the balancer's member names, or nil while it is
	// not serving.
	Members func() []string
	// Pendings returns per-member in-flight counts (optional).
	Pendings func() map[string]int
	// Tier is the actuator owning the replicas.
	Tier TierView
	// ComponentState returns the Fractal state of a replica component.
	ComponentState func(name string) (fractal.State, error)
	// NodeOf resolves a replica's node.
	NodeOf func(name string) (*cluster.Node, error)
	// FailedGrace is how long a member may point at a failed node before
	// it is a violation (default 240 s, covering detection + repair;
	// +Inf where no repair loop runs).
	FailedGrace float64

	label       string
	failedSince map[string]float64
}

// NewBalancerAgreement builds the agreement checker.
func NewBalancerAgreement(label string, members func() []string, tier TierView) *BalancerAgreement {
	return &BalancerAgreement{
		Members:     members,
		Tier:        tier,
		FailedGrace: 240,
		label:       label,
		failedSince: map[string]float64{},
	}
}

// Name implements Checker.
func (c *BalancerAgreement) Name() string { return "balancer-agreement:" + c.label }

// Check implements Checker.
func (c *BalancerAgreement) Check(now float64, boundary bool) error {
	members := c.Members()
	if members == nil {
		return nil // balancer not serving
	}
	replicas := map[string]bool{}
	for _, r := range c.Tier.ReplicaNames() {
		replicas[r] = true
	}
	memberSet := make(map[string]bool, len(members))
	for _, m := range members {
		memberSet[m] = true
		if !replicas[m] {
			return fmt.Errorf("balancer member %s is not a replica of tier %s", m, c.Tier.TierName())
		}
		if c.ComponentState != nil {
			st, err := c.ComponentState(m)
			if err != nil {
				return fmt.Errorf("balancer member %s has no component: %v", m, err)
			}
			if st != fractal.Started {
				return fmt.Errorf("balancer member %s component is %s, not STARTED", m, st)
			}
		}
		if c.NodeOf != nil {
			node, err := c.NodeOf(m)
			if err != nil {
				return fmt.Errorf("balancer member %s has no node: %v", m, err)
			}
			if node.Failed() {
				since, ok := c.failedSince[m]
				if !ok {
					c.failedSince[m] = now
				} else if now-since > c.FailedGrace {
					return fmt.Errorf("balancer member %s bound to failed node %s for %.0f s (> %.0f s grace)",
						m, node.Name(), now-since, c.FailedGrace)
				}
			} else {
				delete(c.failedSince, m)
			}
		}
	}
	for m := range c.failedSince {
		if !memberSet[m] {
			delete(c.failedSince, m)
		}
	}
	if c.Pendings != nil {
		for name, pending := range c.Pendings() {
			if pending < 0 {
				return fmt.Errorf("balancer member %s pending count is negative (%d)", name, pending)
			}
		}
	}
	// Exact set equality only when the tier is quiescent: mid-grow the
	// replica joins the balancer before the replica list, and mid-shrink
	// it leaves the balancer first.
	if !c.Tier.Reconfiguring() {
		for _, r := range c.Tier.ReplicaNames() {
			if memberSet[r] {
				continue
			}
			if c.NodeOf != nil {
				if node, err := c.NodeOf(r); err == nil && node.Failed() {
					continue // awaiting repair; covered by the grace rule
				}
			}
			if c.ComponentState != nil {
				if st, err := c.ComponentState(r); err != nil || st != fractal.Started {
					continue
				}
			}
			return fmt.Errorf("started replica %s of tier %s missing from balancer", r, c.Tier.TierName())
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fractal lifecycle legality

// Lifecycle checks that no STARTED component holds a client binding to a
// server interface whose owner component is STOPPED: requests through
// such a binding would hit software that is architecturally down.
type Lifecycle struct {
	// Roots returns the component trees to walk.
	Roots func() []*fractal.Component
}

// NewLifecycle builds the checker over fixed component roots.
func NewLifecycle(roots ...*fractal.Component) *Lifecycle {
	return &Lifecycle{Roots: func() []*fractal.Component { return roots }}
}

// Name implements Checker.
func (c *Lifecycle) Name() string { return "fractal-lifecycle" }

// Check implements Checker.
func (c *Lifecycle) Check(now float64, boundary bool) error {
	var bad error
	for _, root := range c.Roots() {
		if root == nil {
			continue
		}
		root.Visit(func(comp *fractal.Component) {
			if bad != nil || comp.State() != fractal.Started {
				return
			}
			for _, itf := range comp.Interfaces() {
				if itf.Role() != fractal.Client {
					continue
				}
				for _, b := range comp.Bindings(itf.Name()) {
					owner := b.ServerItf.Owner()
					if owner.State() == fractal.Stopped {
						bad = fmt.Errorf("STARTED %s bound via %s to %s of STOPPED %s",
							comp.Name(), itf.Name(), b.ServerItf.Name(), owner.Name())
						return
					}
				}
			}
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Arbiter legality

// ArbiterDecisionView is the slice of core.ArbiterDecision the legality
// checker reads (duplicated here to keep the dependency direction:
// invariant must not import core).
type ArbiterDecisionView struct {
	T        float64
	Priority int
	Granted  bool
	Released bool
}

// ArbiterLegality re-verifies the arbiter's decision log independently of
// the arbiter's own bookkeeping: within a quiet window, a new grant is
// legal only at strictly higher priority. With the standard priorities
// this is exactly "recovery may preempt sizing, never the reverse".
type ArbiterLegality struct {
	// QuietSeconds is the arbiter's configured window.
	QuietSeconds float64
	// Decisions returns the decision log so far, oldest first.
	Decisions func() []ArbiterDecisionView

	processed int
	holder    int     // priority of the last grant
	until     float64 // end of its quiet window
	active    bool
}

// NewArbiterLegality builds the checker.
func NewArbiterLegality(quietSeconds float64, decisions func() []ArbiterDecisionView) *ArbiterLegality {
	return &ArbiterLegality{QuietSeconds: quietSeconds, Decisions: decisions}
}

// Name implements Checker.
func (c *ArbiterLegality) Name() string { return "arbiter-legality" }

// Check implements Checker.
func (c *ArbiterLegality) Check(now float64, boundary bool) error {
	ds := c.Decisions()
	for ; c.processed < len(ds); c.processed++ {
		d := ds[c.processed]
		if !d.Granted {
			continue
		}
		if d.Released {
			// The holder gave the window up early.
			c.until = d.T
			continue
		}
		if c.active && d.T < c.until && d.Priority <= c.holder {
			return fmt.Errorf("grant at t=%.3f (priority %d) inside quiet window of priority %d holder (until t=%.3f)",
				d.T, d.Priority, c.holder, c.until)
		}
		c.holder = d.Priority
		c.until = d.T + c.QuietSeconds
		c.active = true
	}
	return nil
}
