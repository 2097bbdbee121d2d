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
}

// Check is the routing rule: every named policy parses. It calls bad
// with each violating field's JSON name and the violation.
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
// (or the tier's default when empty) with the selector's own tuning.
func tierOptions(policy string, def selector.Policy) (selector.Options, error) {
	p := def
	if policy != "" {
		var err error
		if p, err = selector.ParsePolicy(policy); err != nil {
			return selector.Options{}, fmt.Errorf("%w: routing policy %q", ErrBadAttribute, policy)
		}
	}
	return selector.DefaultOptions(p), nil
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
	}
	return nil
}
