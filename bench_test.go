package jade

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§5), plus the ablation studies DESIGN.md calls out.
// Each benchmark performs the full experiment per iteration (a complete
// ~2400-virtual-second cluster run for the figures) and prints the
// regenerated figure/table once, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Absolute numbers come from the
// simulated substrate; the shapes (who wins, by what factor, where the
// reconfigurations fall) are the reproduction targets — see
// EXPERIMENTS.md for the paper-vs-measured record.

import (
	"fmt"
	"sync"
	"testing"
)

// benchSeed keeps every benchmark on the same deterministic trajectory.
const benchSeed = 1

var printOnce sync.Map

// printFirst prints a regenerated artifact once per benchmark name.
func printFirst(name, artifact string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, artifact)
	}
}

func runPaper(b *testing.B) *PaperRuns {
	b.Helper()
	pr, err := RunPaperScenario(benchSeed, 1)
	if err != nil {
		b.Fatal(err)
	}
	return pr
}

// BenchmarkFigure4Reconfiguration regenerates the qualitative scenario of
// §5.1/Fig. 4: rebinding Apache1 from Tomcat1 to Tomcat2 as four
// management-layer operations, with the worker.properties rewrite hidden
// in the wrapper.
func BenchmarkFigure4Reconfiguration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := Figure4(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("Figure 4 (qualitative reconfiguration)", out)
	}
}

// BenchmarkFigure5ReplicaCounts regenerates Fig. 5: the dynamically
// adjusted number of replicas per tier under the ramp workload.
func BenchmarkFigure5ReplicaCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pr := runPaper(b)
		printFirst("Figure 5", pr.Figure5())
		b.ReportMetric(pr.Managed.DB.Replicas.Max(), "peak-db-replicas")
		b.ReportMetric(pr.Managed.App.Replicas.Max(), "peak-app-replicas")
		b.ReportMetric(float64(pr.Managed.Reconfigurations), "reconfigurations")
	}
}

// BenchmarkFigure6DatabaseTier regenerates Fig. 6: the database tier's
// CPU behaviour (moving average vs thresholds, managed vs static).
func BenchmarkFigure6DatabaseTier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pr := runPaper(b)
		printFirst("Figure 6", pr.Figure6())
		b.ReportMetric(pr.Managed.DB.CPUSmoothed.Max(), "managed-db-cpu-peak")
		b.ReportMetric(pr.Unmanaged.DB.CPUSmoothed.Max(), "static-db-cpu-peak")
	}
}

// BenchmarkFigure7ApplicationTier regenerates Fig. 7: the application
// tier's CPU behaviour (the static run stays moderate because the
// saturated database throttles it).
func BenchmarkFigure7ApplicationTier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pr := runPaper(b)
		printFirst("Figure 7", pr.Figure7())
		b.ReportMetric(pr.Managed.App.CPUSmoothed.Max(), "managed-app-cpu-peak")
		b.ReportMetric(pr.Unmanaged.App.CPUSmoothed.Max(), "static-app-cpu-peak")
	}
}

// BenchmarkFigure8LatencyWithoutJade regenerates Fig. 8: client response
// time without Jade diverges as the static configuration saturates and
// thrashes (paper: 10.42 s average).
func BenchmarkFigure8LatencyWithoutJade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pr := runPaper(b)
		printFirst("Figure 8", pr.Figure8())
		s := pr.Unmanaged.Stats.LatencySummary()
		b.ReportMetric(s.Mean*1000, "mean-latency-ms")
		b.ReportMetric(s.Max*1000, "max-latency-ms")
	}
}

// BenchmarkFigure9LatencyWithJade regenerates Fig. 9: client response
// time with Jade stays stable across the whole ramp (paper: ~590 ms
// average).
func BenchmarkFigure9LatencyWithJade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pr := runPaper(b)
		printFirst("Figure 9", pr.Figure9())
		printFirst("Scenario summary", pr.Summary())
		s := pr.Managed.Stats.LatencySummary()
		b.ReportMetric(s.Mean*1000, "mean-latency-ms")
		b.ReportMetric(s.Max*1000, "max-latency-ms")
	}
}

// BenchmarkExperiments regenerates Table 1 — Jade's overhead at a medium
// steady workload with no reconfigurations (paper: 12 vs 12 req/s, 89 vs
// 87 ms, 12.74 vs 12.42 % CPU, 20.1 vs 17.5 % memory) — and the ablations
// of the design choices DESIGN.md calls out, one sub-benchmark per
// `jadectl experiment` section.
func BenchmarkExperiments(b *testing.B) {
	for i := range experiments {
		e := &experiments[i]
		if e.name != "table1" && e.name != "ablations" {
			continue
		}
		b.Run(e.title, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, body, err := e.run(testEnv(b, ExperimentOptions{Seed: benchSeed, Speedup: 2}))
				if err != nil {
					b.Fatal(err)
				}
				printFirst(e.title, body)
			}
		})
	}
}

// BenchmarkRecoveryUnderChurn exercises the self-recovery manager (the
// companion SRDS'05 system, Fig. 3 of this paper) under random node
// crashes (MTBF 300 s) and reports availability.
func BenchmarkRecoveryUnderChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultScenario(11, true)
		cfg.Recovery = true
		cfg.MTBFSeconds = 300
		cfg.Profile = ConstantProfile{Clients: 120, Length: 1800}
		r, err := RunScenario(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total := float64(r.Stats.Completed + r.Stats.Failed)
		availability := float64(r.Stats.Completed) / total
		printFirst("Recovery under churn", fmt.Sprintf(
			"crashes=%d repairs=%d completed=%d failed=%d availability=%.4f",
			r.InjectedFailures, r.Repairs, r.Stats.Completed, r.Stats.Failed, availability))
		b.ReportMetric(availability, "availability")
		b.ReportMetric(float64(r.Repairs), "repairs")
	}
}

// BenchmarkScenarioThroughput measures the simulator itself: full
// managed evaluation runs per wall-clock second (the engine replays a
// ~2400-virtual-second cluster day per iteration).
func BenchmarkScenarioThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultScenario(benchSeed, true)
		cfg.Profile = RampProfile{Base: 80, Peak: 500, StepPerMinute: 105, HoldAtPeak: 24}
		if _, err := RunScenario(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
