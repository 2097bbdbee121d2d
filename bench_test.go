package jade

import "testing"

// BenchmarkScenarioThroughput measures the simulator itself: full
// managed evaluation runs per wall-clock second (the engine replays a
// ~2400-virtual-second cluster day per iteration). The evaluation's
// figures and tables are `jadectl experiment`'s reports, pinned by
// testdata/experiments.golden; what a run costs the host is the
// repository benchmark's (`go run ./benchmark`).
func BenchmarkScenarioThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultScenario(1, true)
		cfg.Profile = RampProfile{Base: 80, Peak: 500, StepPerMinute: 105, HoldAtPeak: 24}
		if _, err := RunScenario(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
