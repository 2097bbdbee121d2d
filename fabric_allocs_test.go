package jade

import (
	"runtime"
	"testing"
)

// A browsing ramp with every request traced and every inter-tier call on
// the network fabric, the benchmark's planes_on at a smaller scale, costs
// at most 3.6 heap objects per completed request, the whole run included
// (measured 3.43 at seed 1). The fabric's call records are recycled once
// nothing of their call can read them; while each RPC allocated its own,
// the same run cost 7.72. There is no metrics directory, so no artifact
// writer: the run allocates on this goroutine alone.
func TestFabricRampAllocsPerRequest(t *testing.T) {
	cfg := DefaultScenario(1, true)
	cfg.Profile = RampProfile{Base: 80, Peak: 300, StepPerMinute: 40, HoldAtPeak: 60}
	cfg.Mix = BrowsingMix()
	cfg.TraceRequests = 1
	cfg.Net.Enabled = true
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r, err := RunScenario(cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Completed < 20000 || r.Net.RPCs < 4*r.Stats.Completed {
		t.Fatalf("%d requests completed over %d RPCs: the run must be the fabric-on ramp it was measured on", r.Stats.Completed, r.Net.RPCs)
	}
	if per := float64(m1.Mallocs-m0.Mallocs) / float64(r.Stats.Completed); per > 3.6 {
		t.Errorf("%.3f heap objects per completed request, want at most 3.6", per)
	}
}
