package config

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The parse -> render -> parse property: rendering a parsed document and
// parsing it again must reach a fixpoint (render(parse(render(x))) ==
// render(x)) for every document the builders can produce. Inputs are
// generated from seeded rand — deterministic, no testing/quick.

const fixpointSeeds = 50

func word(r *rand.Rand, prefix string) string {
	return fmt.Sprintf("%s%d", prefix, r.Intn(1000))
}

func TestHTTPDConfFixpoint(t *testing.T) {
	for seed := int64(0); seed < fixpointSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := NewHTTPDConf()
		for i := 0; i < r.Intn(8); i++ {
			switch r.Intn(3) {
			case 0:
				c.Set(word(r, "Listen"), fmt.Sprint(1024+r.Intn(60000)))
			case 1:
				c.Set(word(r, "LoadModule"), word(r, "mod_"), word(r, "modules/"))
			default:
				c.Set(word(r, "ServerName"), word(r, "host"))
			}
		}
		once := c.Render()
		p1, err := ParseHTTPDConf(once)
		if err != nil {
			t.Fatalf("seed %d: parse 1: %v", seed, err)
		}
		twice := p1.Render()
		if once != twice {
			t.Fatalf("seed %d: httpd.conf not a fixpoint:\n--- render 1:\n%s\n--- render 2:\n%s", seed, once, twice)
		}
		p2, err := ParseHTTPDConf(twice)
		if err != nil {
			t.Fatalf("seed %d: parse 2: %v", seed, err)
		}
		if got, want := p2.Render(), twice; got != want {
			t.Fatalf("seed %d: third render diverged", seed)
		}
	}
}

func TestWorkerPropertiesFixpoint(t *testing.T) {
	for seed := int64(0); seed < fixpointSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := NewWorkerProperties()
		var members []string
		for i := 0; i < r.Intn(5); i++ {
			name := fmt.Sprintf("tomcat%d", i+1)
			w.SetWorker(Worker{
				Name:     name,
				Host:     word(r, "node"),
				Port:     8009 + r.Intn(100),
				Type:     "ajp13",
				LBFactor: 1 + r.Intn(3),
			})
			members = append(members, name)
		}
		if len(members) > 0 && r.Intn(2) == 0 {
			w.SetWorker(Worker{Name: "lb", Type: "lb", Balanced: members})
		}
		once := w.Render()
		p1, err := ParseWorkerProperties(once)
		if err != nil {
			t.Fatalf("seed %d: parse 1: %v", seed, err)
		}
		twice := p1.Render()
		if once != twice {
			t.Fatalf("seed %d: worker.properties not a fixpoint:\n--- render 1:\n%s\n--- render 2:\n%s", seed, once, twice)
		}
	}
}

func TestServerXMLFixpoint(t *testing.T) {
	for seed := int64(0); seed < fixpointSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewServerXML(word(r, "tomcat"))
		if r.Intn(2) == 0 {
			s.SetConnector("http", 8080+r.Intn(100), word(r, "addr"))
		}
		if r.Intn(2) == 0 {
			s.SetConnector("ajp13", 8009+r.Intn(100), "")
		}
		for i := 0; i < r.Intn(3); i++ {
			s.SetJDBC(word(r, "jdbc/"), "com.mysql.Driver",
				fmt.Sprintf("jdbc:mysql://%s:3306/rubis", word(r, "node")))
		}
		once, err := s.Render()
		if err != nil {
			t.Fatalf("seed %d: render 1: %v", seed, err)
		}
		p1, err := ParseServerXML(once)
		if err != nil {
			t.Fatalf("seed %d: parse 1: %v", seed, err)
		}
		twice, err := p1.Render()
		if err != nil {
			t.Fatalf("seed %d: render 2: %v", seed, err)
		}
		if once != twice {
			t.Fatalf("seed %d: server.xml not a fixpoint:\n--- render 1:\n%s\n--- render 2:\n%s", seed, once, twice)
		}
	}
}

func TestMyCnfFixpoint(t *testing.T) {
	for seed := int64(0); seed < fixpointSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		var text strings.Builder
		for i := 0; i < 1+r.Intn(3); i++ {
			fmt.Fprintf(&text, "[%s]\n", []string{"mysqld", "client", "mysqldump"}[r.Intn(3)])
			switch r.Intn(3) {
			case 0:
				fmt.Fprintf(&text, "%s=%d\n", word(r, "port"), 3306+r.Intn(100))
			case 1:
				fmt.Fprintf(&text, "%s=%s\n", word(r, "datadir"), word(r, "/var/lib/"))
			default:
				fmt.Fprintf(&text, "%s\n", word(r, "skip-"))
			}
		}
		c, err := ParseMyCnf(text.String())
		if err != nil {
			t.Fatalf("seed %d: parse 0: %v", seed, err)
		}
		once := c.Render()
		p1, err := ParseMyCnf(once)
		if err != nil {
			t.Fatalf("seed %d: parse 1: %v", seed, err)
		}
		twice := p1.Render()
		if once != twice {
			t.Fatalf("seed %d: my.cnf not a fixpoint:\n--- render 1:\n%s\n--- render 2:\n%s", seed, once, twice)
		}
		p2, err := ParseMyCnf(twice)
		if err != nil {
			t.Fatalf("seed %d: parse 2: %v", seed, err)
		}
		if p2.Render() != twice {
			t.Fatalf("seed %d: third render diverged", seed)
		}
	}
}
