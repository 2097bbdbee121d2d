package jade

import (
	"runtime"
	"testing"
)

// fabricRampAllocsPerRequest runs a browsing ramp with every request
// traced and every inter-tier call on the network fabric, the benchmark's
// planes_on at a smaller scale, and returns the heap objects it allocated
// per completed request, the whole run included: every goroutine's, so
// the artifact writer's too when there is one.
func fabricRampAllocsPerRequest(t *testing.T, metricsDir string) float64 {
	t.Helper()
	cfg := DefaultScenario(1, true)
	cfg.Profile = RampProfile{Base: 80, Peak: 300, StepPerMinute: 40, HoldAtPeak: 60}
	cfg.Mix = BrowsingMix()
	cfg.TraceRequests = 1
	cfg.Net.Enabled = true
	cfg.MetricsDir = metricsDir
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
	return float64(m1.Mallocs-m0.Mallocs) / float64(r.Stats.Completed)
}

// The fabric-on ramp costs at most 3.6 heap objects per completed
// request (measured 3.43 at seed 1). The fabric's call records are
// recycled once nothing of their call can read them; while each RPC
// allocated its own, the same run cost 7.72. There is no metrics
// directory, so no artifact writer: the run allocates on this goroutine
// alone.
func TestFabricRampAllocsPerRequest(t *testing.T) {
	if per := fabricRampAllocsPerRequest(t, ""); per > 3.6 {
		t.Errorf("%.3f heap objects per completed request, want at most 3.6", per)
	}
}

// The same ramp writing a metrics snapshot every 10 s (14 files of each
// page) costs at most 3.6 objects per completed request too (measured
// 3.51 at seed 1). A snapshot fills a few flat slabs and each page is
// appended to one buffer; while Snapshot sorted and copied per call and
// the JSON page went through encoding/json's maps and reflection, the
// same run cost 4.00.
func TestFabricRampWithMetricsAllocsPerRequest(t *testing.T) {
	if per := fabricRampAllocsPerRequest(t, t.TempDir()); per > 3.6 {
		t.Errorf("%.3f heap objects per completed request, want at most 3.6", per)
	}
}

// A bidding-mix ramp, fabric and tracing off, costs at most 3.75 heap
// objects per completed request (measured 3.49 at seed 1). About one
// request in five issues writes: each is built as a statement from the
// values its interaction drew, logged and replayed as it was built. While
// every write was printed with fmt.Sprintf, parsed again at the C-JDBC
// controller and logged as its text, the same run cost 4.98.
func TestBiddingRampAllocsPerRequest(t *testing.T) {
	cfg := DefaultScenario(1, true)
	cfg.Profile = RampProfile{Base: 80, Peak: 300, StepPerMinute: 40, HoldAtPeak: 60}
	cfg.Mix = BiddingMix()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r, err := RunScenario(cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	stores := r.Stats.Interaction("StoreBid").Count + r.Stats.Interaction("StoreComment").Count
	if r.Stats.Completed < 20000 || stores < r.Stats.Completed/20 {
		t.Fatalf("%d requests completed, %d of them StoreBid or StoreComment: the run must be the bidding ramp it was measured on", r.Stats.Completed, stores)
	}
	per := float64(m1.Mallocs-m0.Mallocs) / float64(r.Stats.Completed)
	if per > 3.75 {
		t.Errorf("%.3f heap objects per completed request, want at most 3.75", per)
	}
}
