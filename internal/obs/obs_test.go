package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %g", g.Value())
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should no-op")
	}
	var tm *TierMetrics
	tm.End(tm.Begin(), nil)
	tm.Drop()
	var pm *PoolMetrics
	pm.SetSizes(1, 2)
	var r *Registry
	if r.Counter("x", "h") != nil {
		t.Fatal("nil registry should hand out nil instruments")
	}
	r.Snapshot()
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry(nil)
	a := r.Counter("jade_x_total", "x", L("tier", "app"))
	b := r.Counter("jade_x_total", "x", L("tier", "app"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := r.Counter("jade_x_total", "x", L("tier", "db"))
	if a == c {
		t.Fatal("different labels must return a distinct counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type conflict must panic")
		}
	}()
	r.Gauge("jade_x_total", "x")
}

func TestHistogramQuantilesExact(t *testing.T) {
	h := NewHistogram(nil)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000) // 1ms..100ms
	}
	if got := h.Quantile(0.50); math.Abs(got-0.0505) > 1e-9 {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Quantile(1); got != 0.1 {
		t.Fatalf("p100 = %v", got)
	}
	if got := h.Quantile(0); got != 0.001 {
		t.Fatalf("p0 = %v", got)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
}

func buildTestRegistry() *Registry {
	now := 0.0
	r := NewRegistry(func() float64 { return now })
	r.Counter("jade_req_total", "Requests.", L("tier", "web"), L("instance", "apache1")).Add(10)
	r.Counter("jade_req_total", "Requests.", L("tier", "app"), L("instance", "tomcat1")).Add(7)
	r.Gauge("jade_pool_free_nodes", "Free nodes.").Set(3)
	h := r.Histogram("jade_latency_seconds", "Latency.", L("tier", "client"))
	h.Observe(0.004)
	h.Observe(0.120)
	h.Observe(2.5)
	return r
}

func TestPrometheusTextRoundTrip(t *testing.T) {
	r := buildTestRegistry()
	page := PrometheusText(r.Snapshot())
	n, err := ValidatePrometheusText(page)
	if err != nil {
		t.Fatalf("validate: %v\npage:\n%s", err, page)
	}
	if n == 0 {
		t.Fatal("no samples")
	}
	text := string(page)
	for _, want := range []string{
		"# TYPE jade_req_total counter",
		"# TYPE jade_latency_seconds histogram",
		`jade_req_total{instance="apache1",tier="web"} 10`,
		`jade_latency_seconds_bucket{tier="client",le="+Inf"} 3`,
		"jade_latency_seconds_count{tier=\"client\"} 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("page missing %q:\n%s", want, text)
		}
	}
	// Exposition is deterministic.
	if !bytes.Equal(page, PrometheusText(r.Snapshot())) {
		t.Fatal("two snapshots of an unchanged registry rendered differently")
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	r := buildTestRegistry()
	doc := MetricsJSON(r.Snapshot())
	fams, err := ValidateMetricsJSON(doc)
	if err != nil {
		t.Fatalf("validate: %v\ndoc:\n%s", err, doc)
	}
	if fams != 3 {
		t.Fatalf("families = %d, want 3", fams)
	}
	if !bytes.Equal(doc, MetricsJSON(r.Snapshot())) {
		t.Fatal("json snapshot not deterministic")
	}
}

func TestValidatePrometheusTextRejects(t *testing.T) {
	bad := []string{
		"",                                   // no samples
		"jade_orphan 1\n",                    // sample without TYPE
		"# HELP x h\n# TYPE x counter\nx\n",  // no value
		"# TYPE x counter\nx 1\n",            // TYPE before HELP
		"# HELP x h\n# TYPE x wibble\nx 1\n", // unknown type
	}
	for _, page := range bad {
		if _, err := ValidatePrometheusText([]byte(page)); err == nil {
			t.Fatalf("page %q should fail validation", page)
		}
	}
}

func TestSLOEngine(t *testing.T) {
	reg := NewRegistry(nil)
	lat := 0.5
	objs := []Objective{
		{
			Name: "client-latency-p95", Tier: "client", Kind: LatencyPercentile,
			Percentile: 0.95, Max: 2.0, Min: Unbounded(),
			Probe: func(t0, t1 float64) (float64, bool) { return lat, true },
		},
		{
			Name: "app-cpu-band", Tier: "app", Kind: CPUBand,
			Max: 0.9, Min: Unbounded(),
			Probe: func(t0, t1 float64) (float64, bool) { return 0, false }, // never fires
		},
	}
	e := NewSLOEngine(reg, 10, objs)
	e.Evaluate(0) // anchor
	e.Evaluate(10)
	lat = 3.0 // violate
	e.Evaluate(20)
	lat = 1.0
	e.Evaluate(30)
	rep := e.Report()
	if len(rep.Objectives) != 2 {
		t.Fatalf("objectives = %d", len(rep.Objectives))
	}
	o := rep.Objectives[0]
	if o.Intervals != 3 || o.MetCount != 2 {
		t.Fatalf("latency objective: %d/%d", o.MetCount, o.Intervals)
	}
	if o.Worst != 3.0 || o.Last != 1.0 {
		t.Fatalf("worst/last = %v/%v", o.Worst, o.Last)
	}
	if rep.Compliant() {
		t.Fatal("report should be non-compliant")
	}
	idle := rep.Objectives[1]
	if idle.Intervals != 0 || idle.Compliance != 1 {
		t.Fatalf("idle objective: %+v", idle)
	}
	out := rep.Render()
	if !strings.Contains(out, "client-latency-p95") || !strings.Contains(out, "2/3") {
		t.Fatalf("render missing fields:\n%s", out)
	}
}

func TestAdminServerServesPublishedPages(t *testing.T) {
	pub := NewPublisher()
	srv, err := StartAdmin("127.0.0.1:0", pub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	url := fmt.Sprintf("http://%s/metrics", srv.Addr())
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-publish status = %d", resp.StatusCode)
	}

	r := buildTestRegistry()
	pub.Set("/metrics", PrometheusText(r.Snapshot()))
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	if _, err := ValidatePrometheusText(body); err != nil {
		t.Fatalf("served page invalid: %v", err)
	}
}

// TestAdminRefusesOversizedPost: a body over maxPostBody gets 413 and
// never reaches the handler; one of exactly maxPostBody bytes does.
func TestAdminRefusesOversizedPost(t *testing.T) {
	pub := NewPublisher()
	var got []int
	pub.SetPostHandler("/config", func(body []byte) (int, []byte) {
		got = append(got, len(body))
		return http.StatusAccepted, nil
	})
	srv, err := StartAdmin("127.0.0.1:0", pub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	post := func(n int) int {
		resp, err := http.Post(fmt.Sprintf("http://%s/config", srv.Addr()), "application/json", bytes.NewReader(make([]byte, n)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := post(maxPostBody + 1); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST of %d bytes: status %d, want 413", maxPostBody+1, status)
	}
	if len(got) != 0 {
		t.Fatalf("oversized POST reached the handler with %v bytes", got)
	}
	if status := post(maxPostBody); status != http.StatusAccepted {
		t.Fatalf("POST of %d bytes: status %d, want 202", maxPostBody, status)
	}
	if len(got) != 1 || got[0] != maxPostBody {
		t.Fatalf("handler saw bodies of %v bytes, want [%d]", got, maxPostBody)
	}
}
