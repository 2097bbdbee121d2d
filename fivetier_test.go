package jade

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"jade/internal/core"
	"jade/internal/netsim"
)

// deployFiveTier deploys the full Fig. 2 architecture.
func deployFiveTier(t *testing.T) (*Platform, *Deployment) {
	t.Helper()
	return deployFiveTierWith(t, DefaultPlatformOptions())
}

func deployFiveTierWith(t *testing.T, opts PlatformOptions) (*Platform, *Deployment) {
	t.Helper()
	p := NewPlatform(opts)
	ds := Dataset{Regions: 5, Categories: 5, Users: 40, Items: 50, BidsPerItem: 1, CommentsPerUser: 1}
	dump, err := ds.InitialDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	p.RegisterDump("rubis", dump)
	def, err := ParseADL(FiveTierADL)
	if err != nil {
		t.Fatal(err)
	}
	var dep *Deployment
	derr := errors.New("pending")
	p.Deploy(def, func(d *Deployment, err error) { dep, derr = d, err })
	p.Eng.Run()
	if derr != nil {
		t.Fatal(derr)
	}
	return p, dep
}

func TestFiveTierDeploymentUsesAllNineNodes(t *testing.T) {
	p, dep := deployFiveTier(t)
	// Eight components on eight nodes; the ninth hosted the Jade
	// platform itself in the paper's testbed.
	if p.Pool.AllocatedCount() != 8 {
		t.Fatalf("allocated = %d, want 8", p.Pool.AllocatedCount())
	}
	if p.Pool.FreeCount() != 1 {
		t.Fatalf("free = %d, want 1", p.Pool.FreeCount())
	}
	desc := dep.Describe()
	for _, want := range []string{"web-tier", "app-tier", "db-tier",
		"servers (client http) -> apache1.http",
		"servers (client http) -> apache2.http",
		"ajp (client ajp13) -> tomcat1.ajp",
		"ajp (client ajp13) -> tomcat2.ajp",
		"backends (client jdbc) -> mysql2.sql"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("Describe missing %q", want)
		}
	}
}

func TestFiveTierTrafficFlowsThroughEveryLayer(t *testing.T) {
	p, dep := deployFiveTier(t)
	front, err := dep.FrontEnd()
	if err != nil {
		t.Fatal(err)
	}
	// The L4 switch must be the front end.
	l4node, err := dep.NodeOf("l4")
	if err != nil {
		t.Fatal(err)
	}
	_ = l4node

	// 40 dynamic requests: weighted round robin spreads them over both
	// Apaches, each Apache round-robins over both Tomcats, C-JDBC
	// balances reads over both MySQLs and broadcasts writes to both.
	var pending int
	for i := 0; i < 40; i++ {
		pending++
		req := &WebRequest{
			Interaction: "mixed",
			WebCost:     0.001,
			AppCost:     0.002,
			Queries: []Query{
				{SQL: "SELECT * FROM items WHERE id = 1", Cost: 0.002},
				{SQL: fmt.Sprintf("INSERT INTO buy_now (id, buyer_id, item_id, qty, date) VALUES (%d, 1, 1, 1, 0)", i), Cost: 0.001},
			},
		}
		front.HandleHTTP(req, netsim.ReplyFunc(func(err error) {
			pending--
			if err != nil {
				t.Errorf("request failed: %v", err)
			}
		}))
	}
	p.Eng.Run()
	if pending != 0 {
		t.Fatalf("%d requests never completed", pending)
	}

	// Every layer participated: even split over the Apaches (equal L4
	// weights), both Tomcats and both MySQL mirrors.
	apache1 := dep.MustComponent("apache1").Content().(*core.ApacheWrapper).Server().Served()
	apache2 := dep.MustComponent("apache2").Content().(*core.ApacheWrapper).Server().Served()
	if apache1 != 20 || apache2 != 20 {
		t.Fatalf("apache split = %d/%d, want 20/20", apache1, apache2)
	}
	tomcat1 := dep.MustComponent("tomcat1").Content().(*core.TomcatWrapper).Server().Served()
	tomcat2 := dep.MustComponent("tomcat2").Content().(*core.TomcatWrapper).Server().Served()
	if tomcat1+tomcat2 != 40 || tomcat1 == 0 || tomcat2 == 0 {
		t.Fatalf("tomcat split = %d/%d", tomcat1, tomcat2)
	}
	// Writes were mirrored onto both backends; the virtual database is
	// consistent.
	m1 := dep.MustComponent("mysql1").Content().(*core.MySQLWrapper).Server().DB().RowCount("buy_now")
	m2 := dep.MustComponent("mysql2").Content().(*core.MySQLWrapper).Server().DB().RowCount("buy_now")
	if m1 != 40 || m2 != 40 {
		t.Fatalf("mirrored rows = %d/%d, want 40/40", m1, m2)
	}
	cw := dep.MustComponent("cjdbc1").Content().(*core.CJDBCWrapper)
	if !cw.Controller().CheckConsistency().Consistent {
		t.Fatal("mirrors diverged")
	}
}
