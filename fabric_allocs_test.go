package jade

import (
	"runtime"
	"testing"
)

// rampAllocsPerRequest runs the tests' managed 80-300 ramp over mix, with
// set applied to its configuration when given, and returns the run and the
// heap objects and bytes it allocated per completed request, the whole run
// included: every goroutine's, so the artifact writer's too when there is
// one.
func rampAllocsPerRequest(t *testing.T, mix *Mix, set func(*ScenarioConfig)) (r *ScenarioResult, objects, bytes float64) {
	t.Helper()
	cfg := DefaultScenario(1, true)
	cfg.Profile = RampProfile{Base: 80, Peak: 300, StepPerMinute: 40, HoldAtPeak: 60}
	cfg.Mix = mix
	if set != nil {
		set(&cfg)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r, err := RunScenario(cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Completed < 20000 {
		t.Fatalf("%d requests completed: the run must be the ramp it was measured on", r.Stats.Completed)
	}
	n := float64(r.Stats.Completed)
	return r, float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
}

// fabricRampAllocsPerRequest runs a browsing ramp with every request
// traced and every inter-tier call on the network fabric, the benchmark's
// planes_on at a smaller scale, and returns the heap objects it allocated
// per completed request.
func fabricRampAllocsPerRequest(t *testing.T, metricsDir string) float64 {
	t.Helper()
	r, per, _ := rampAllocsPerRequest(t, BrowsingMix(), func(cfg *ScenarioConfig) {
		cfg.TraceRequests = 1
		cfg.Net.Enabled = true
		cfg.MetricsDir = metricsDir
	})
	if r.Net.RPCs < 4*r.Stats.Completed {
		t.Fatalf("%d requests completed over %d RPCs: the run must be the fabric-on ramp it was measured on", r.Stats.Completed, r.Net.RPCs)
	}
	return per
}

// The fabric-on ramp costs at most 2.48 heap objects per completed
// request (measured 2.25 at seed 1). The fabric's call records are
// recycled once nothing of their call can read them, and a client's
// request record whenever no call still carries it; while each RPC
// allocated its own record the same run cost 7.72, and 3.44 while each
// request did. There is no metrics directory, so no artifact writer: the
// run allocates on this goroutine alone.
func TestFabricRampAllocsPerRequest(t *testing.T) {
	if per := fabricRampAllocsPerRequest(t, ""); per > 2.48 {
		t.Errorf("%.3f heap objects per completed request, want at most 2.48", per)
	}
}

// The same ramp writing a metrics snapshot every 10 s (14 files of each
// page) costs at most 2.55 objects per completed request (measured 2.32
// at seed 1; 3.51 while each request allocated its record). A snapshot
// fills a few flat slabs and each page is appended to one buffer; while
// Snapshot sorted and copied per call and the JSON page went through
// encoding/json's maps and reflection, the same run cost 4.00.
func TestFabricRampWithMetricsAllocsPerRequest(t *testing.T) {
	if per := fabricRampAllocsPerRequest(t, t.TempDir()); per > 2.55 {
		t.Errorf("%.3f heap objects per completed request, want at most 2.55", per)
	}
}

// A bidding-mix ramp, fabric and tracing off, costs at most 2.53 heap
// objects and 318 bytes per completed request (measured 2.30 and 289 at
// seed 1, 296 bytes under -race). About one request in five issues
// writes: each is built as a
// statement from the values its interaction drew, logged and replayed as
// it was built. While each request allocated its record, the same run cost
// 3.49 objects and 585 bytes; while every write was printed with
// fmt.Sprintf, parsed again at the C-JDBC controller and logged as its
// text, 4.98 objects.
func TestBiddingRampAllocsPerRequest(t *testing.T) {
	r, per, b := rampAllocsPerRequest(t, BiddingMix(), nil)
	if stores := r.Stats.Interaction("StoreBid").Count + r.Stats.Interaction("StoreComment").Count; stores < r.Stats.Completed/20 {
		t.Fatalf("%d of %d requests were StoreBid or StoreComment: the run must be the bidding ramp it was measured on", stores, r.Stats.Completed)
	}
	if per > 2.53 {
		t.Errorf("%.3f heap objects per completed request, want at most 2.53", per)
	}
	// Bytes catch a run store that regrows by append, copying everything
	// it holds at each step: 821 when the stores were slices.
	if b > 318 {
		t.Errorf("%.0f bytes per completed request, want at most 318", b)
	}
}

// A browsing-mix ramp, every hop's record and each client's request
// record recycled, costs at most 1.00 heap objects and 177 bytes per
// completed request (measured 0.91 and 161 at seed 1, 165 bytes under
// -race): the rest is the run itself, the initial database, deployment
// and the management plane, amortized over the requests. While each
// request allocated its record, the same run cost 2.10 objects and 457
// bytes.
func TestBrowsingRampAllocsPerRequest(t *testing.T) {
	_, per, b := rampAllocsPerRequest(t, BrowsingMix(), nil)
	if per > 1.00 {
		t.Errorf("%.3f heap objects per completed request, want at most 1.00", per)
	}
	if b > 177 {
		t.Errorf("%.0f bytes per completed request, want at most 177", b)
	}
}
