package jade

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"jade/internal/legacy"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/trace"
)

// The golden matrix (golden_test.go) runs RunScenario, which requires
// plb1 as the front end, so none of its runs deploys an L4 switch or an
// Apache. The two runs below pin that half of Fig. 2 the same way: a fixed
// request script against FiveTierADL with every request traced and the
// metrics registry live, digests of the trace JSONL and the final
// Prometheus page committed under testdata/fivetier_digests.json.

// fiveTierSession is one deployed FiveTierADL with a script clock: at()
// schedules a step at an offset from the end of deployment, send() issues
// one traced request through the front end.
type fiveTierSession struct {
	t        *testing.T
	p        *Platform
	dep      *Deployment
	front    legacy.HTTPHandler
	start    float64
	sent     int
	answered int
}

func (s *fiveTierSession) at(offset float64, label string, fn func()) {
	s.p.Eng.After(s.start+offset-s.p.Eng.Now(), label, fn)
}

// send issues req at offset under a root span of its own.
func (s *fiveTierSession) send(offset float64, req *WebRequest) {
	n := s.sent
	s.sent++
	s.at(offset, "script:request", func() {
		tr := s.p.Trace()
		root := tr.Begin(0, "request", req.Interaction, trace.Fi("n", n))
		req.TraceSpan = root
		s.front.HandleHTTP(req, netsim.ReplyFunc(func(err error) {
			s.answered++
			tr.End(root, trace.Outcome(err))
		}))
	})
}

// The three request shapes of the script: a static page, a read-only
// servlet, and a servlet that reads then writes (so C-JDBC broadcasts).
func staticPage(key string) *WebRequest {
	return &WebRequest{Interaction: "static", Static: true, WebCost: 0.001, SessionKey: key}
}

func browse(key string) *WebRequest {
	return &WebRequest{Interaction: "browse", WebCost: 0.001, AppCost: 0.002, SessionKey: key,
		Queries: []Query{
			{SQL: "SELECT * FROM items WHERE id = 1", Cost: 0.002},
			{SQL: "SELECT * FROM users WHERE id = 2", Cost: 0.001},
		}}
}

func buy(key string, id int) *WebRequest {
	return &WebRequest{Interaction: "buy", WebCost: 0.001, AppCost: 0.003, SessionKey: key,
		Queries: []Query{
			{SQL: "SELECT * FROM items WHERE id = 1", Cost: 0.002},
			{SQL: fmt.Sprintf("INSERT INTO buy_now (id, buyer_id, item_id, qty, date) VALUES (%d, 1, 1, 1, 0)", 1000+id), Cost: 0.001},
		}}
}

// mixed is request i of a repeating static / browse / buy pattern over
// four session keys (every fifth request carries none).
func mixed(i int) *WebRequest {
	key := ""
	if i%5 != 4 {
		key = fmt.Sprintf("session-%d", i%4)
	}
	switch i % 3 {
	case 0:
		return staticPage(key)
	case 1:
		return browse(key)
	}
	return buy(key, i)
}

// fiveTierArtifacts deploys FiveTierADL with the given L4 policy, plays
// script, runs the engine dry and returns the trace JSONL, the final
// Prometheus page and a readable scalar line.
func fiveTierArtifacts(t *testing.T, l4Policy string, script func(s *fiveTierSession)) (jsonl, prom []byte, scalars string) {
	t.Helper()
	opts := DefaultPlatformOptions()
	opts.Routing.L4 = l4Policy
	p, dep := deployFiveTierWith(t, opts)
	front, err := dep.FrontEnd()
	if err != nil {
		t.Fatal(err)
	}
	s := &fiveTierSession{t: t, p: p, dep: dep, front: front, start: p.Eng.Now()}
	script(s)
	p.Eng.Run()
	if s.answered != s.sent {
		t.Fatalf("%d of %d requests answered", s.answered, s.sent)
	}
	if err := p.Trace().WellFormed(); err != nil {
		t.Fatalf("span tree: %v", err)
	}
	var buf bytes.Buffer
	if err := p.Trace().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), obs.PrometheusText(p.Metrics().Snapshot()),
		fmt.Sprintf("events=%d requests=%d spans=%d trace_events=%d",
			p.Eng.Processed(), s.sent, len(p.Trace().Spans()), len(p.Trace().Events()))
}

// fiveTierDigests is fiveTierArtifacts in the manifest's form.
func fiveTierDigests(t *testing.T, l4Policy string, script func(s *fiveTierSession)) map[string]string {
	t.Helper()
	jsonl, prom, scalars := fiveTierArtifacts(t, l4Policy, script)
	sum := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	return map[string]string{"trace.jsonl": sum(jsonl), "metrics.prom": sum(prom), "scalars": scalars}
}

// crashScript is the default-policy run: steady mixed traffic, apache2's
// node crashing under a burst, traffic onto the dead replica (nothing
// repairs it), the switch node crashing under a burst, requests to the
// dead switch node, and one to the stopped switch.
func crashScript(s *fiveTierSession) {
	for i := 0; i < 18; i++ {
		s.send(float64(i)*0.0004, mixed(i))
	}
	// A burst in one instant, then apache2's node dies while some of it is
	// on the web tier's CPUs and some already behind them.
	for i := 0; i < 10; i++ {
		s.send(1, mixed(i+1))
	}
	s.at(1.0025, "script:crash-apache2", func() {
		n, err := s.dep.NodeOf("apache2")
		if err != nil {
			s.t.Fatal(err)
		}
		n.Fail()
	})
	for i := 0; i < 6; i++ {
		s.send(1.5+float64(i)*0.003, mixed(i))
	}
	// Three requests already behind the switch, six on its CPU, when the
	// switch node dies.
	for i := 0; i < 3; i++ {
		s.send(1.998, mixed(i+1))
	}
	for i := 0; i < 6; i++ {
		s.send(2, mixed(i))
	}
	s.at(2.0001, "script:crash-l4", func() {
		n, err := s.dep.NodeOf("l4")
		if err != nil {
			s.t.Fatal(err)
		}
		n.Fail()
	})
	s.send(2.5, browse("session-1"))
	s.send(2.5, staticPage(""))
	s.at(3, "script:stop-l4", func() {
		s.p.StopComponent(s.dep.MustComponent("l4"), func(err error) {
			if err != nil {
				s.t.Errorf("stopping l4: %v", err)
			}
		})
	})
	s.send(3.5, browse("session-2"))
}

// rendezvousScript is the run with routing.l4 = rendezvous: the switch
// starts with one server, a second joins mid-script (keys move by hash; the
// switch pins nothing), apache1 is restarted without AJP workers, the
// switch itself is restarted, and at the end it has no server left.
func rendezvousScript(s *fiveTierSession) {
	l4c := s.dep.MustComponent("l4")
	apache2 := s.dep.MustComponent("apache2").MustInterface("http")
	if err := l4c.Unbind("servers", apache2); err != nil {
		s.t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		s.send(float64(i)*0.002, mixed(i))
	}
	s.at(1, "script:bind-apache2", func() {
		if err := l4c.Bind("servers", apache2); err != nil {
			s.t.Errorf("binding apache2: %v", err)
		}
	})
	for i := 0; i < 15; i++ {
		s.send(1.1+float64(i)*0.002, mixed(i))
	}
	// apache1 comes back with an empty worker.properties: static pages
	// still served, servlets refused.
	apache1 := s.dep.MustComponent("apache1")
	s.at(2, "script:restart-apache1", func() {
		s.p.StopComponent(apache1, func(err error) {
			if err != nil {
				s.t.Errorf("stopping apache1: %v", err)
				return
			}
			for _, tomcat := range []string{"tomcat1", "tomcat2"} {
				if err := apache1.Unbind("ajp", s.dep.MustComponent(tomcat).MustInterface("ajp")); err != nil {
					s.t.Errorf("unbinding %s: %v", tomcat, err)
				}
			}
			s.p.StartComponent(apache1, func(err error) {
				if err != nil {
					s.t.Errorf("starting apache1: %v", err)
				}
			})
		})
	})
	// While apache1 is still stopping (1 s), while it is starting (2 s) and
	// after it is back.
	for i := 0; i < 4; i++ {
		s.send(2.5+float64(i)*0.002, mixed(i))
	}
	for i := 0; i < 8; i++ {
		s.send(3.5+float64(i)*0.002, mixed(i))
	}
	for i := 0; i < 12; i++ {
		s.send(6+float64(i)*0.002, mixed(i))
	}
	// A restarted switch is a new balancer under the same instruments.
	s.at(7, "script:restart-l4", func() {
		s.p.StopComponent(l4c, func(err error) {
			if err != nil {
				s.t.Errorf("stopping l4: %v", err)
				return
			}
			s.p.StartComponent(l4c, func(err error) {
				if err != nil {
					s.t.Errorf("starting l4: %v", err)
					return
				}
				if s.front, err = s.dep.FrontEnd(); err != nil {
					s.t.Errorf("front end: %v", err)
				}
			})
		})
	})
	for i := 0; i < 9; i++ {
		s.send(8+float64(i)*0.0003, mixed(i))
	}
	// A switch with no server left refuses.
	s.at(9, "script:unbind-all", func() {
		for _, apache := range []string{"apache1", "apache2"} {
			if err := l4c.Unbind("servers", s.dep.MustComponent(apache).MustInterface("http")); err != nil {
				s.t.Errorf("unbinding %s: %v", apache, err)
			}
		}
	})
	s.send(9.5, browse("session-3"))
}

// TestFiveTierGoldenDigests replays the two scripts and compares their
// artifact digests with testdata/fivetier_digests.json, which pins the L4
// switch and Apache request paths to the commit that wrote it (`go test
// -run TestFiveTierGoldenDigests -update .` accepts an intended change).
func TestFiveTierGoldenDigests(t *testing.T) {
	path := filepath.Join("testdata", "fivetier_digests.json")
	got := goldenManifest{GOARCH: runtime.GOARCH, Runs: map[string]map[string]string{
		"crashes-weighted-rr": fiveTierDigests(t, "", crashScript),
		"rendezvous-rebind":   fiveTierDigests(t, "rendezvous", rendezvousScript),
	}}
	if *updateSurface {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing manifest (run `go test -run TestFiveTierGoldenDigests -update .`): %v", err)
	}
	var want goldenManifest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	skipUnverifiedArch(t)
	for run, artifacts := range got.Runs {
		for name, digest := range artifacts {
			if want.Runs[run][name] != digest {
				t.Errorf("%s/%s: got %s, manifest has %s", run, name, digest, want.Runs[run][name])
			}
		}
	}
	if len(want.Runs) != len(got.Runs) {
		t.Errorf("manifest has %d runs, the test has %d", len(want.Runs), len(got.Runs))
	}
}
