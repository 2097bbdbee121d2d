package jade

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"jade/internal/core"
	"jade/internal/selector"
)

// routedScenario is a short traced run with every tier forced onto one
// routing policy, shared by the per-policy determinism sweep.
func routedScenario(seed int64, policy string) ScenarioConfig {
	cfg := DefaultScenario(seed, true)
	cfg.Profile = ConstantProfile{Clients: 40, Length: 60}
	cfg.TraceRequests = 10
	cfg.Routing = RoutingConfig{L4: policy, App: policy, DB: policy}
	return cfg
}

// TestRoutingPolicyDeterminismSweep extends the 20-seed byte-identical
// sweep across the selector policies: every (seed, policy) pair must
// export the same JSONL trace twice. Seeds rotate through the policies
// so all five are exercised without quintupling the sweep.
func TestRoutingPolicyDeterminismSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("20-seed sweep")
	}
	policies := RoutingPolicies()
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		policy := policies[int(seed)%len(policies)]
		t.Run(fmt.Sprintf("seed%d-%s", seed, policy), func(t *testing.T) {
			t.Parallel()
			var dumps [2][]byte
			for i := range dumps {
				r, err := RunScenario(routedScenario(seed, policy))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := r.Trace().WriteJSONL(&buf); err != nil {
					t.Fatal(err)
				}
				dumps[i] = buf.Bytes()
			}
			if len(dumps[0]) == 0 {
				t.Fatal("empty JSONL export")
			}
			if !bytes.Equal(dumps[0], dumps[1]) {
				t.Fatalf("same-seed exports differ (%d vs %d bytes)", len(dumps[0]), len(dumps[1]))
			}
		})
	}
}

// TestGrayFailureBalancedBeatsRoundRobin is the experiment's headline
// claim: with one crawling Tomcat and one slowed MySQL replica — alive,
// heartbeating, invisible to any failure detector — the balanced scorer
// must hold p99 at least 2x below round-robin's. The grayfail entry's
// report enforces the claim; this also checks what the runs deployed.
func TestGrayFailureBalancedBeatsRoundRobin(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length gray-failure run")
	}
	rs, _ := runEntry(t, testEnv(t, ExperimentOptions{Seed: 1}), "grayfail")
	for _, v := range rs {
		if v.res.InvariantViolation != nil {
			t.Fatalf("%s: invariant violation: %v", v.name, v.res.InvariantViolation)
		}
		if v.res.Stats.Completed == 0 {
			t.Fatalf("%s: no requests completed", v.name)
		}
		// Unmanaged runs report the replicas the ADL deployed, not 1.
		if app, db := v.res.App.Replicas.Max(), v.res.DB.Replicas.Max(); app != 3 || db != 2 {
			t.Fatalf("%s: replica series peak app=%v db=%v, want 3/2", v.name, app, db)
		}
	}
	if rs[0].name != "round-robin" || rs[2].name != "balanced" {
		t.Fatalf("policy order: %q ... %q", rs[0].name, rs[2].name)
	}
}

// TestRoutingPoolConcurrentObservers runs a quick gray-failure scenario
// while a goroutine hammers the live selector pools' read-only
// observers, proving (under -race) that introspection never perturbs or
// races the simulation, which is the pools' sole mutator.
func TestRoutingPoolConcurrentObservers(t *testing.T) {
	cfg := grayFailSpec(3, "balanced", true).compile()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	cfg.Chaos = append(cfg.Chaos, ChaosEvent{At: 5, Kind: "observe-pools"})
	cfg.ChaosHandler = func(res *ScenarioResult, ev ChaosEvent) bool {
		if ev.Kind != "observe-pools" {
			return false
		}
		plbPool := res.Deployment.MustComponent("plb1").Content().(*core.BalancerWrapper).Balancer().Pool()
		dbPool := res.Deployment.MustComponent("cjdbc1").Content().(*core.CJDBCWrapper).Controller().Pool()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range []*selector.Pool{plbPool, dbPool} {
					_ = p.Snapshot()
					_ = p.Pendings()
					_ = p.Names()
					_ = p.Len()
				}
			}
		}()
		return true
	}
	r, err := RunScenario(cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r.InvariantViolation != nil {
		t.Fatalf("invariant violation: %v", r.InvariantViolation)
	}
	if r.Stats.Completed == 0 {
		t.Fatal("no requests completed")
	}
}

// TestStickySessionsSurviveRepair is the regression test for the
// sticky-session-to-fenced-node bug: rendezvous affinity on both tiers,
// Markov sessions, and a crash+reboot of each pinned replica under the
// recovery manager. Before the fix, the PLB session table and the
// C-JDBC read pool kept routing to the fenced replica after its repair,
// which the double-repair and balancer-agreement invariants now catch.
func TestStickySessionsSurviveRepair(t *testing.T) {
	cfg := DefaultScenario(11, true)
	cfg.Profile = ConstantProfile{Clients: 80, Length: 300}
	cfg.Sessions = true
	cfg.Recovery = true
	cfg.Arbitrate = true
	cfg.Invariants = true
	cfg.Routing = RoutingConfig{App: "rendezvous", DB: "rendezvous"}
	cfg.Chaos = ChaosSchedule{
		{At: 60, Kind: ChaosCrash, Target: "tomcat1"},
		{At: 120, Kind: ChaosReboot, Target: "tomcat1"},
		{At: 160, Kind: ChaosCrash, Target: "mysql1"},
		{At: 220, Kind: ChaosReboot, Target: "mysql1"},
	}
	r, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.InvariantViolation != nil {
		t.Fatalf("invariant violation: %v", r.InvariantViolation)
	}
	if r.Repairs < 2 {
		t.Fatalf("expected both crashed replicas repaired, got %d repairs", r.Repairs)
	}
	if uint64(r.RepairDiscards) != r.RepairsConfirmedLegal {
		t.Fatalf("repair discards not all confirmed legal: %d discards, %d confirmed",
			r.RepairDiscards, r.RepairsConfirmedLegal)
	}
	if r.Stats.Completed == 0 {
		t.Fatal("no requests completed")
	}
	// Each crash takes out a tier's only replica until its repair lands,
	// so some failures are inherent; service must still recover to carry
	// the large majority of the run.
	if f, c := float64(r.Stats.Failed), float64(r.Stats.Completed); f > 0.2*c {
		t.Fatalf("too many failed requests across repairs: %d failed vs %d completed",
			r.Stats.Failed, r.Stats.Completed)
	}
}
