package config

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// --- FS ---

func TestMemFSRoundTrip(t *testing.T) {
	fs := NewMemFS()
	if _, err := fs.ReadFile("missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("read missing: %v", err)
	}
	if err := fs.WriteFile("a/b.conf", []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("a/b.conf")
	if err != nil || string(got) != "x" {
		t.Fatalf("read = %q, %v", got, err)
	}
	// Mutating the returned slice must not affect the stored copy.
	got[0] = 'y'
	again, _ := fs.ReadFile("a/b.conf")
	if string(again) != "x" {
		t.Fatal("MemFS returned aliased buffer")
	}
	if list := fs.List(); len(list) != 1 || list[0] != "a/b.conf" {
		t.Fatalf("List = %v", list)
	}
}

// --- httpd.conf ---

const sampleHTTPD = `# Apache configuration
Listen 80
ServerName node1
DocumentRoot /var/www

# modules
LoadModule jk_module modules/mod_jk.so
JkWorkersFile conf/worker.properties
`

func TestHTTPDParseGetSet(t *testing.T) {
	c, err := ParseHTTPDConf(sampleHTTPD)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.GetString("Listen"); got != "80" {
		t.Fatalf("Listen = %q", got)
	}
	if n, err := c.GetInt("listen"); err != nil || n != 80 {
		t.Fatalf("case-insensitive GetInt = %d, %v", n, err)
	}
	if _, err := c.GetInt("DocumentRoot"); err == nil {
		t.Fatal("GetInt on non-numeric value should fail")
	}
	if _, err := c.GetInt("NoSuch"); err == nil {
		t.Fatal("GetInt on missing directive should fail")
	}
	c.Set("Listen", "8080")
	if got := c.GetString("Listen"); got != "8080" {
		t.Fatalf("after Set, Listen = %q", got)
	}
	// Render preserves comments and ordering.
	out := c.Render()
	if !strings.HasPrefix(out, "# Apache configuration\nListen 8080\n") {
		t.Fatalf("render lost structure:\n%s", out)
	}
	// New directive appends.
	c.Set("KeepAlive", "On")
	if !strings.Contains(c.Render(), "KeepAlive On\n") {
		t.Fatal("appended directive missing")
	}
}

func TestHTTPDParseRejectsBareDirective(t *testing.T) {
	if _, err := ParseHTTPDConf("Listen\n"); err == nil {
		t.Fatal("bare directive accepted")
	}
}

func TestHTTPDRoundTripIdentity(t *testing.T) {
	c, err := ParseHTTPDConf(sampleHTTPD)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ParseHTTPDConf(c.Render())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, c2) {
		t.Fatalf("round trip changed the document:\n%s\nvs\n%s", c.Render(), c2.Render())
	}
}

func TestHTTPDSetNoValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set with no args did not panic")
		}
	}()
	NewHTTPDConf().Set("Listen")
}

// --- worker.properties ---

func TestWorkerPropertiesPaperExample(t *testing.T) {
	// The exact file from the paper's Fig. 4 manual-reconfiguration text.
	text := `worker.worker.port=8098
worker.worker.host=node3
worker.worker.type=ajp13
worker.worker.lbfactor=100
worker.list=worker, loadbalancer
worker.loadbalancer.type=lb
worker.loadbalancer.balanced_workers=worker
`
	w, err := ParseWorkerProperties(text)
	if err != nil {
		t.Fatal(err)
	}
	wk, ok := w.Worker("worker")
	if !ok {
		t.Fatal("worker not found")
	}
	if wk.Host != "node3" || wk.Port != 8098 || wk.Type != "ajp13" || wk.LBFactor != 100 {
		t.Fatalf("worker = %+v", wk)
	}
	lb, ok := w.Worker("loadbalancer")
	if !ok || lb.Type != "lb" {
		t.Fatalf("loadbalancer = %+v, ok=%v", lb, ok)
	}
	if !reflect.DeepEqual(lb.Balanced, []string{"worker"}) {
		t.Fatalf("balanced = %v", lb.Balanced)
	}
	if !reflect.DeepEqual(w.List(), []string{"worker", "loadbalancer"}) {
		t.Fatalf("list = %v", w.List())
	}
}

func TestWorkerPropertiesRebind(t *testing.T) {
	// The Fig. 4 scenario: rebinding Apache from tomcat1 to tomcat2 is a
	// worker rewrite.
	w := NewWorkerProperties()
	w.SetWorker(Worker{Name: "tomcat1", Host: "node2", Port: 66})
	if got := w.WorkerNames(); !reflect.DeepEqual(got, []string{"tomcat1"}) {
		t.Fatalf("names = %v", got)
	}
	w.RemoveWorker("tomcat1")
	w.SetWorker(Worker{Name: "tomcat2", Host: "node3", Port: 8098, LBFactor: 100})
	wk, ok := w.Worker("tomcat2")
	if !ok || wk.Host != "node3" || wk.Port != 8098 {
		t.Fatalf("tomcat2 = %+v ok=%v", wk, ok)
	}
	if _, ok := w.Worker("tomcat1"); ok {
		t.Fatal("tomcat1 still present after rebind")
	}
	if !reflect.DeepEqual(w.List(), []string{"tomcat2"}) {
		t.Fatalf("list = %v", w.List())
	}
	out := w.Render()
	if !strings.Contains(out, "worker.tomcat2.host=node3") ||
		strings.Contains(out, "tomcat1") {
		t.Fatalf("rendered file wrong:\n%s", out)
	}
}

func TestWorkerPropertiesBalancerMembership(t *testing.T) {
	w := NewWorkerProperties()
	w.SetWorker(Worker{Name: "w1", Host: "a", Port: 1})
	w.SetWorker(Worker{Name: "w2", Host: "b", Port: 2})
	w.SetWorker(Worker{Name: "lb", Type: "lb", Balanced: []string{"w1", "w2"}})
	w.RemoveWorker("w1")
	lb, _ := w.Worker("lb")
	if !reflect.DeepEqual(lb.Balanced, []string{"w2"}) {
		t.Fatalf("balanced after removal = %v", lb.Balanced)
	}
	// Removing the last plain worker leaves only the balancer listed.
	w.RemoveWorker("w2")
	if !reflect.DeepEqual(w.List(), []string{"lb"}) {
		t.Fatalf("list = %v", w.List())
	}
}

func TestWorkerPropertiesRoundTrip(t *testing.T) {
	w := NewWorkerProperties()
	w.SetWorker(Worker{Name: "t1", Host: "node2", Port: 8009, LBFactor: 50})
	w.SetWorker(Worker{Name: "lb", Type: "lb", Balanced: []string{"t1"}})
	w2, err := ParseWorkerProperties(w.Render())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.Workers(), w2.Workers()) {
		t.Fatalf("round trip changed workers:\n%v\n%v", w.Workers(), w2.Workers())
	}
}

func TestWorkerPropertiesEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty worker name did not panic")
		}
	}()
	NewWorkerProperties().SetWorker(Worker{})
}

func TestPropertiesParsingErrors(t *testing.T) {
	if _, err := ParseProperties("novalue\n"); err == nil {
		t.Fatal("line without '=' accepted")
	}
	if _, err := ParseProperties("=value\n"); err == nil {
		t.Fatal("empty key accepted")
	}
	p, err := ParseProperties("# comment\n! also comment\n\nk = v\n")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Get("k"); v != "v" {
		t.Fatalf("k = %q", v)
	}
	p.Unset("nonexistent") // no-op
	p.Unset("k")
	if _, ok := p.Get("k"); ok {
		t.Fatal("Unset failed")
	}
}

// Property: Properties render/parse round trips preserve all key/values.
func TestPropertyPropertiesRoundTrip(t *testing.T) {
	f := func(keys []string, vals []string) bool {
		p := NewProperties()
		want := map[string]string{}
		for i, k := range keys {
			// The parser TrimSpaces keys, so any Unicode whitespace (not
			// just ASCII space) must be neutralized for the round trip.
			k = strings.Map(func(r rune) rune {
				if r == '=' || r == '#' || r == '!' || unicode.IsSpace(r) {
					return 'x'
				}
				return r
			}, k)
			if k == "" {
				continue
			}
			v := "v"
			if i < len(vals) {
				v = strings.Map(func(r rune) rune {
					if r == '\n' {
						return 'x'
					}
					return r
				}, vals[i])
				v = strings.TrimSpace(v)
			}
			p.Set(k, v)
			want[k] = v
		}
		p2, err := ParseProperties(p.Render())
		if err != nil {
			return false
		}
		for k, v := range want {
			got, ok := p2.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return len(p2.Keys()) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- my.cnf ---

const sampleMyCnf = `# MySQL configuration
[mysqld]
port=3306
datadir=/var/lib/mysql
skip-networking

[client]
port=3306
`

func TestMyCnfParseAndQuery(t *testing.T) {
	c, err := ParseMyCnf(sampleMyCnf)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := c.GetInt("mysqld", "port"); err != nil || p != 3306 {
		t.Fatalf("port = %d, %v", p, err)
	}
	if want := "[mysqld]\ndatadir=/var/lib/mysql\nport=3306\nskip-networking\n\n[client]\nport=3306\n"; c.Render() != want {
		t.Fatalf("flag not parsed into its section:\n%s", c.Render())
	}
	if _, ok := c.Get("nosection", "port"); ok {
		t.Fatal("missing section returned value")
	}
	if _, err := c.GetInt("mysqld", "datadir"); err == nil {
		t.Fatal("GetInt on path accepted")
	}
}

func TestMyCnfMutation(t *testing.T) {
	c := NewMyCnf()
	c.SetInt("mysqld", "port", 3307)
	c.Set("mysqld", "bind-address", "node5")
	out := c.Render()
	for _, want := range []string{"[mysqld]", "port=3307", "bind-address=node5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMyCnfRoundTrip(t *testing.T) {
	c, err := ParseMyCnf(sampleMyCnf)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ParseMyCnf(c.Render())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c2.Get("mysqld", "datadir"); v != "/var/lib/mysql" {
		t.Fatalf("datadir lost: %q", v)
	}
	if c2.Render() != c.Render() {
		t.Fatalf("flag lost in round trip:\n%s", c2.Render())
	}
}

func TestMyCnfParseErrors(t *testing.T) {
	cases := []string{
		"[unclosed\nport=1\n",
		"[]\n",
		"port=3306\n", // entry before any section
	}
	for _, text := range cases {
		if _, err := ParseMyCnf(text); err == nil {
			t.Errorf("ParseMyCnf(%q) accepted invalid input", text)
		}
	}
}

// --- server.xml ---

func TestServerXMLRoundTrip(t *testing.T) {
	s := NewServerXML("tomcat1")
	s.SetConnector("http", 8080, "")
	s.SetConnector("ajp13", 8009, "node2")
	s.SetJDBC("rubis", "com.mysql.jdbc.Driver", "jdbc:mysql://node5:3306/rubis")
	s.Contexts = append(s.Contexts, WebContextXML{Path: "/rubis", DocBase: "rubis"})
	text, err := s.Render()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseServerXML(text)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name != "tomcat1" {
		t.Fatalf("name = %q", s2.Name)
	}
	c, ok := s2.Connector("ajp13")
	if !ok || c.Port != 8009 || c.Address != "node2" {
		t.Fatalf("ajp13 connector = %+v ok=%v", c, ok)
	}
	r, ok := s2.JDBC("rubis")
	if !ok || r.URL != "jdbc:mysql://node5:3306/rubis" {
		t.Fatalf("jdbc = %+v ok=%v", r, ok)
	}
	if len(s2.Contexts) != 1 || s2.Contexts[0].Path != "/rubis" {
		t.Fatalf("contexts = %+v", s2.Contexts)
	}
}

func TestServerXMLReplaceSemantics(t *testing.T) {
	s := NewServerXML("t")
	s.SetConnector("http", 8080, "")
	s.SetConnector("http", 9090, "")
	if len(s.Connectors) != 1 || s.Connectors[0].Port != 9090 {
		t.Fatalf("SetConnector did not replace: %+v", s.Connectors)
	}
	s.SetJDBC("db", "d", "url1")
	s.SetJDBC("db", "d", "url2")
	if len(s.Resources) != 1 || s.Resources[0].URL != "url2" {
		t.Fatalf("SetJDBC did not replace: %+v", s.Resources)
	}
	s.RemoveJDBC("db")
	if len(s.Resources) != 0 {
		t.Fatal("RemoveJDBC failed")
	}
	s.RemoveJDBC("ghost") // no-op
	if _, ok := s.Connector("ajp13"); ok {
		t.Fatal("missing connector reported present")
	}
}

func TestServerXMLParseError(t *testing.T) {
	if _, err := ParseServerXML("<Server><unclosed></Server>"); err == nil {
		t.Fatal("malformed XML accepted")
	}
}
