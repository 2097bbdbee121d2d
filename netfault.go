package jade

import "fmt"

// netFaultBase is the shared scenario of the network-fault experiment: a
// managed, recovering, invariant-checked constant-load run with every
// inter-tier call and heartbeat on the simulated network.
func netFaultBase(seed int64) Spec {
	s := DefaultSpec(seed, true)
	s.Recovery = true
	s.Workload.Profile = ProfileSpec{Kind: "constant", Clients: 40, DurationSeconds: 240}
	s.Checks.Invariants = true
	s.Faults.Network.Enabled = true
	return s
}

// netFaultRuns is the managed recovery scenario under increasingly
// hostile network conditions — message loss, a heartbeat partition, and
// a real replica crash.
func netFaultRuns(x *expEnv) ([]expRun, error) {
	var rs []expRun
	for _, v := range []struct {
		name   string
		mutate func(*Spec)
	}{
		{"healthy network", func(*Spec) {}},
		{"loss 0.5%", func(s *Spec) { s.Faults.Network.Default.Loss = 0.005 }},
		{"loss 2%", func(s *Spec) { s.Faults.Network.Default.Loss = 0.02 }},
		{"partition 30s (heartbeats)", func(s *Spec) {
			s.Faults.Chaos = ChaosSchedule{{At: 60, Kind: ChaosPartition, Duration: 30, A: []string{"tomcat1"}, B: []string{ManagementEndpoint}}}
		}},
		{"crash replica at 60s", func(s *Spec) {
			s.Faults.Chaos = ChaosSchedule{{At: 60, Kind: ChaosCrash, Target: "tomcat1"}}
		}},
		{"crash + loss 0.5%", func(s *Spec) {
			s.Faults.Network.Default.Loss = 0.005
			s.Faults.Chaos = ChaosSchedule{{At: 60, Kind: ChaosCrash, Target: "tomcat1"}}
		}},
	} {
		s := netFaultBase(x.Seed)
		v.mutate(&s)
		rs = append(rs, expRun{name: v.name, spec: s})
	}
	return rs, nil
}

// netFaultReport tabulates what the φ-accrual detector got right, what it
// got wrong, and whether every resulting repair was legal (the
// double-repair invariant confirmed the discarded replica dead).
func netFaultReport(_ *expEnv, rs []expRun) (string, error) {
	tb := &TextTable{
		Title: "Managed recovery under network faults (constant 40 clients, 240 s)",
		Headers: []string{"network", "suspicions", "true/false", "detect lat (s)",
			"repairs", "legal", "failed req", "violation"},
	}
	for _, v := range rs {
		r := v.res
		det := r.Detector
		lat := "-"
		if det.TruePositives > 0 {
			lat = fmt.Sprintf("%.1f", det.MeanDetectionLatency())
		}
		violation := "none"
		if r.InvariantViolation != nil {
			violation = r.InvariantViolation.Checker
		}
		tb.AddRow(v.name,
			fmt.Sprintf("%d", det.Suspicions),
			fmt.Sprintf("%d/%d", det.TruePositives, det.FalsePositives),
			lat,
			fmt.Sprintf("%d", r.Repairs),
			fmt.Sprintf("%d/%d", r.RepairsConfirmedLegal, r.RepairDiscards),
			fmt.Sprintf("%d", r.Stats.Failed),
			violation)
	}
	return tb.Render(), nil
}
