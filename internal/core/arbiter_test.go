package core

import (
	"testing"
)

func TestArbiterGrantsWhenIdle(t *testing.T) {
	a := NewArbiter(60)
	if !a.Request(0, "app", PriorityOptimization) {
		t.Fatal("idle arbiter denied")
	}
	if d := a.Decisions(); len(d) != 1 || !d[0].Granted {
		t.Fatalf("decisions = %+v", d)
	}
}

func TestArbiterQuietWindowDeniesEqualPriority(t *testing.T) {
	a := NewArbiter(60)
	if !a.Request(0, "app", PriorityOptimization) {
		t.Fatal("first request denied")
	}
	if a.Request(30, "db", PriorityOptimization) {
		t.Fatal("equal priority granted inside quiet window")
	}
	if !a.Request(61, "db", PriorityOptimization) {
		t.Fatal("request after window denied")
	}
	if n := denied(a); n != 1 {
		t.Fatalf("denied = %d", n)
	}
}

// denied counts the arbiter's refusals in its decision log.
func denied(a *Arbiter) int {
	n := 0
	for _, d := range a.Decisions() {
		if !d.Granted {
			n++
		}
	}
	return n
}

func TestArbiterRecoveryPreemptsOptimization(t *testing.T) {
	a := NewArbiter(60)
	if !a.Request(0, "app", PriorityOptimization) {
		t.Fatal("first request denied")
	}
	// Recovery arrives during optimization's quiet window: preempts.
	if !a.Request(10, "self-recovery", PriorityRecovery) {
		t.Fatal("recovery denied inside optimization window")
	}
	// Optimization cannot preempt recovery's window.
	if a.Request(20, "app", PriorityOptimization) {
		t.Fatal("optimization preempted recovery")
	}
	// Nor can another recovery (equal priority).
	if a.Request(20, "self-recovery-2", PriorityRecovery) {
		t.Fatal("equal-priority recovery preempted recovery")
	}
	// Decision log records everything.
	if got := len(a.Decisions()); got != 4 {
		t.Fatalf("decisions = %d", got)
	}
}

func TestReactorWithArbiterSerializesTiers(t *testing.T) {
	p, dep := deployThreeTier(t)
	appTier, err := NewAppTier(p, dep, "plb1", "cjdbc1", []string{"tomcat1"})
	if err != nil {
		t.Fatal(err)
	}
	dbTier, err := NewDBTier(p, dep, "cjdbc1", []string{"mysql1"})
	if err != nil {
		t.Fatal(err)
	}
	arb := NewArbiter(60)
	appR := NewThresholdReactor(p, appTier, 0.3, 0.8, nil)
	appR.Arbiter = arb
	dbR := NewThresholdReactor(p, dbTier, 0.3, 0.8, nil)
	dbR.Arbiter = arb
	appR.React(100, 0.95)
	dbR.React(100, 0.95)
	p.Eng.Run()
	if got := appR.Grows + dbR.Grows; got != 1 {
		t.Fatalf("reconfigurations = %d, want 1 (arbiter quiet window)", got)
	}
	if n := denied(arb); n != 1 {
		t.Fatalf("denied = %d", n)
	}
}

func TestRecoveryPreemptsSizingThroughArbiter(t *testing.T) {
	p, dep := deployThreeTier(t)
	appTier, err := NewAppTier(p, dep, "plb1", "cjdbc1", []string{"tomcat1"})
	if err != nil {
		t.Fatal(err)
	}
	arb := NewArbiter(120)
	sizing := NewThresholdReactor(p, appTier, 0.3, 0.8, nil)
	sizing.Arbiter = arb
	rec, err := NewRecoveryManager(p, "self-recovery", 1, appTier)
	if err != nil {
		t.Fatal(err)
	}
	rec.Arbiter = arb
	if err := rec.Loop.Start(); err != nil {
		t.Fatal(err)
	}
	// Sizing takes the window first...
	sizing.React(p.Eng.Now(), 0.95)
	// ...then the replica's node dies while that window is open.
	node, _ := dep.NodeOf("tomcat1")
	p.Eng.After(2, "crash", node.Fail)
	p.Eng.RunUntil(p.Eng.Now() + 90)
	if rec.Repairs != 1 {
		t.Fatalf("repairs = %d: recovery blocked by optimization's quiet window", rec.Repairs)
	}
	// After recovery's grant, sizing is locked out for the window.
	sizingGrowsBefore := sizing.Grows
	sizing.React(p.Eng.Now(), 0.95)
	p.Eng.RunUntil(p.Eng.Now() + 30)
	if sizing.Grows != sizingGrowsBefore {
		t.Fatal("sizing reconfigured inside recovery's quiet window")
	}
}

func TestAdaptiveTunerLowersThresholdOnSLOViolation(t *testing.T) {
	p, dep := deployThreeTier(t)
	tier, err := NewAppTier(p, dep, "plb1", "cjdbc1", []string{"tomcat1"})
	if err != nil {
		t.Fatal(err)
	}
	reactor := NewThresholdReactor(p, tier, 0.35, 0.80, nil)
	latency := 5.0 // well above the SLO
	tuner := NewAdaptiveTuner(reactor, func(now float64) (float64, bool) {
		return latency, true
	}, 1.0)
	loop, err := NewControlLoop(p, "tuner", 10, tuner, tuner)
	if err != nil {
		t.Fatal(err)
	}
	if err := loop.Start(); err != nil {
		t.Fatal(err)
	}
	p.Eng.RunUntil(p.Eng.Now() + 200)
	if reactor.Max >= 0.80 {
		t.Fatalf("Max = %v, tuner did not lower it", reactor.Max)
	}
	if reactor.Max < tuner.FloorMax {
		t.Fatalf("Max = %v dropped below floor %v", reactor.Max, tuner.FloorMax)
	}
	_, lowers := tuner.Adjustments()
	if lowers == 0 {
		t.Fatal("no adjustments counted")
	}
	// Long violation converges exactly to the floor and stays there.
	p.Eng.RunUntil(p.Eng.Now() + 2000)
	if reactor.Max != tuner.FloorMax {
		t.Fatalf("Max = %v, want floor %v", reactor.Max, tuner.FloorMax)
	}

	// Comfortable latency raises it back, bounded by the ceiling.
	latency = 0.05
	p.Eng.RunUntil(p.Eng.Now() + 5000)
	if reactor.Max != tuner.CeilMax {
		t.Fatalf("Max = %v, want ceiling %v", reactor.Max, tuner.CeilMax)
	}
	raises, _ := tuner.Adjustments()
	if raises == 0 {
		t.Fatal("no raises counted")
	}
	if tuner.MaxSeries.Len() == 0 {
		t.Fatal("threshold series empty")
	}
	if err := loop.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveTunerHoldsInComfortBand(t *testing.T) {
	p, dep := deployThreeTier(t)
	tier, err := NewAppTier(p, dep, "plb1", "cjdbc1", []string{"tomcat1"})
	if err != nil {
		t.Fatal(err)
	}
	reactor := NewThresholdReactor(p, tier, 0.35, 0.80, nil)
	// Latency between comfort*SLO and SLO: no adjustment either way.
	tuner := NewAdaptiveTuner(reactor, func(now float64) (float64, bool) {
		return 0.5, true
	}, 1.0)
	tuner.React(0, 0.5)
	tuner.React(10, 0.5)
	if reactor.Max != 0.80 {
		t.Fatalf("Max changed to %v inside the comfort band", reactor.Max)
	}
	raises, lowers := tuner.Adjustments()
	if raises+lowers != 0 {
		t.Fatalf("adjustments = %d/%d", raises, lowers)
	}
}

func TestLatencyDrivenSizing(t *testing.T) {
	// The paper (§4.2) notes a response-time sensor can replace the CPU
	// probe. The ThresholdReactor is unit-agnostic, so a latency-driven
	// manager is a latency reader + thresholds in seconds.
	p, dep := deployThreeTier(t)
	tier, err := NewAppTier(p, dep, "plb1", "cjdbc1", []string{"tomcat1"})
	if err != nil {
		t.Fatal(err)
	}
	latency := 3.0
	sensor := sensorFunc(func(float64) (float64, bool) { return latency, true })
	reactor := NewThresholdReactor(p, tier, 0.1, 1.0, nil) // thresholds in seconds
	loop, err := NewControlLoop(p, "latency-sizer", 1, sensor, reactor)
	if err != nil {
		t.Fatal(err)
	}
	if err := loop.Start(); err != nil {
		t.Fatal(err)
	}
	p.Eng.RunUntil(p.Eng.Now() + 60)
	if tier.ReplicaCount() != 2 {
		t.Fatalf("replicas = %d, latency-driven grow did not fire", tier.ReplicaCount())
	}
	// Latency recovers far below min: shrink after the inhibition.
	latency = 0.05
	p.Eng.RunUntil(p.Eng.Now() + 120)
	if tier.ReplicaCount() != 1 {
		t.Fatalf("replicas = %d, latency-driven shrink did not fire", tier.ReplicaCount())
	}
	if err := loop.Stop(); err != nil {
		t.Fatal(err)
	}
}

// sensorFunc adapts a function to the Sensor interface.
type sensorFunc func(now float64) (float64, bool)

func (f sensorFunc) Sample(now float64) (float64, bool) { return f(now) }
