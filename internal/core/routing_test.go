package core

import (
	"testing"

	"jade/internal/selector"
)

// SetRouting retunes every live pool through the options a start builds
// it with, so an empty policy falls back to the tier's own default.
func TestSetRoutingRetunesLivePools(t *testing.T) {
	p, dep := deployThreeTier(t)
	plb := dep.MustComponent("plb1").Content().(*BalancerWrapper).pool()
	cj := dep.MustComponent("cjdbc1").Content().(*CJDBCWrapper).pool()
	policies := func() [2]selector.Policy { return [2]selector.Policy{plb.Policy(), cj.Policy()} }
	if got, want := policies(), [2]selector.Policy{selector.RoundRobin, selector.LeastPending}; got != want {
		t.Fatalf("deployed policies = %v, want the tier defaults %v", got, want)
	}
	if err := p.SetRouting(dep, RoutingConfig{App: "balanced", DB: "rendezvous"}); err != nil {
		t.Fatal(err)
	}
	if got, want := policies(), [2]selector.Policy{selector.Balanced, selector.Rendezvous}; got != want {
		t.Fatalf("retuned policies = %v, want %v", got, want)
	}
	if err := p.SetRouting(dep, RoutingConfig{}); err != nil {
		t.Fatal(err)
	}
	if got, want := policies(), [2]selector.Policy{selector.RoundRobin, selector.LeastPending}; got != want {
		t.Fatalf("policies after clearing = %v, want the tier defaults %v", got, want)
	}
	if err := p.SetRouting(dep, RoutingConfig{App: "fastest"}); err == nil {
		t.Fatal("an unknown policy was applied")
	}
}
