package core

import (
	"fmt"

	"jade/internal/selector"
)

// RoutingConfig names the backend-selection policy of each balancing
// tier (see selector.PolicyNames for the accepted spellings). Empty
// strings keep each tier's historic default: weighted-round-robin for
// the L4 switch, round-robin for PLB, least-pending for C-JDBC reads.
// The JSON names are the /config page's.
type RoutingConfig struct {
	// L4, App and DB select the policy of the L4 switch, the PLB
	// application balancer and the C-JDBC read balancer respectively.
	L4  string `json:"l4"`
	App string `json:"app"`
	DB  string `json:"db"`
	// ProbeAfterSeconds overrides how long a suspected-down backend
	// stays unpicked before a probe request tests it (selector default
	// when zero).
	ProbeAfterSeconds float64 `json:"probe_after_seconds"`
	// HalfLifeSeconds overrides the decay half-life of the balanced
	// scorer's failure/latency reservoirs (selector default when zero).
	HalfLifeSeconds float64 `json:"half_life_seconds"`
}

// Check is the routing rule: every named policy parses and no tuning
// value is negative. It calls bad with each violating field's JSON name
// and the violation.
func (r RoutingConfig) Check(bad func(field, msg string)) {
	for _, tier := range [...]struct{ field, policy string }{
		{"l4", r.L4}, {"app", r.App}, {"db", r.DB},
	} {
		if tier.policy == "" {
			continue
		}
		if _, err := selector.ParsePolicy(tier.policy); err != nil {
			bad(tier.field, fmt.Sprintf("unknown policy %q (want one of %v)", tier.policy, selector.PolicyNames()))
		}
	}
	for _, f := range [...]struct {
		field string
		v     float64
	}{{"probe_after_seconds", r.ProbeAfterSeconds}, {"half_life_seconds", r.HalfLifeSeconds}} {
		if f.v < 0 {
			bad(f.field, fmt.Sprintf("must be >= 0, got %g", f.v))
		}
	}
}

// Validate reports Check's first violation.
func (r RoutingConfig) Validate() error {
	var err error
	r.Check(func(field, msg string) {
		if err == nil {
			err = fmt.Errorf("jade: routing %s: %s", field, msg)
		}
	})
	return err
}

// tierOptions builds the selector options for one tier: the named policy
// (or the tier's default when empty) plus any pool-tuning overrides.
func (r RoutingConfig) tierOptions(policy string, def selector.Policy) (selector.Options, error) {
	p := def
	if policy != "" {
		var err error
		if p, err = selector.ParsePolicy(policy); err != nil {
			return selector.Options{}, fmt.Errorf("%w: routing policy %q", ErrBadAttribute, policy)
		}
	}
	o := selector.DefaultOptions(p)
	if r.ProbeAfterSeconds > 0 {
		o.ProbeAfterSeconds = r.ProbeAfterSeconds
	}
	if r.HalfLifeSeconds > 0 {
		o.HalfLifeSeconds = r.HalfLifeSeconds
	}
	return o, nil
}

// routed is a wrapper whose server balances over a selector pool.
type routed interface {
	// pool is the live pool (nil before the first start).
	pool() *selector.Pool
	// routing is the options a start builds the pool with.
	routing() (selector.Options, error)
}

// SetRouting makes rc the platform's routing configuration. Balancers
// started from now on (a repair's restart among them) build their pools
// with it, and the live pool of every balancer in d switches to the same
// options in place, keeping its backend bookkeeping. Simulation goroutine
// only.
func (p *Platform) SetRouting(d *Deployment, rc RoutingConfig) error {
	p.opts.Routing = rc
	for _, name := range d.ComponentNames() {
		w, ok := d.comps[name].Content().(routed)
		if !ok || w.pool() == nil {
			continue
		}
		o, err := w.routing()
		if err != nil {
			return err
		}
		w.pool().SetPolicy(o.Policy)
		w.pool().Retune(o.HalfLifeSeconds, o.ProbeAfterSeconds)
	}
	return nil
}
