package core

import (
	"errors"
	"strings"
	"testing"

	"jade/internal/adl"
)

func TestDescribeManagementListsLoops(t *testing.T) {
	p, dep := deployThreeTier(t)
	tier, err := NewAppTier(p, dep, "plb1", "cjdbc1", []string{"tomcat1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSizingManager(p, "self-optimization-app", tier, AppSizingDefaults(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRecoveryManager(p, "self-recovery", 1, tier); err != nil {
		t.Fatal(err)
	}
	out := p.DescribeManagement()
	for _, want := range []string{"jade [composite", "self-optimization-app", "self-recovery"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DescribeManagement missing %q:\n%s", want, out)
		}
	}
	if p.ManagementRoot().Name() != "jade" {
		t.Fatal("management root misnamed")
	}
	if got := len(p.ManagementRoot().Children()); got != 2 {
		t.Fatalf("management children = %d", got)
	}
}

func TestFrontEndSelection(t *testing.T) {
	// PLB when no L4 is deployed.
	_, dep := deployThreeTier(t)
	if _, err := dep.FrontEnd(); err != nil {
		t.Fatal(err)
	}

	// Apache-only deployment falls back to Apache.
	p2 := NewPlatform(DefaultOptions())
	db, _ := smallDataset().InitialDatabase(1)
	p2.RegisterDump("rubis", db)
	def, err := adl.Parse(`<definition name="weblayer">
	  <component name="apache1" wrapper="apache"/>
	</definition>`)
	if err != nil {
		t.Fatal(err)
	}
	var dep2 *Deployment
	derr := errors.New("pending")
	p2.Deploy(def, func(d *Deployment, err error) { dep2, derr = d, err })
	p2.Eng.Run()
	if derr != nil {
		t.Fatal(derr)
	}
	front, err := dep2.FrontEnd()
	if err != nil || front == nil {
		t.Fatalf("FrontEnd = %v, %v", front, err)
	}

	// A database-only deployment has no front end.
	p3 := NewPlatform(DefaultOptions())
	p3.RegisterDump("rubis", db)
	def3, err := adl.Parse(`<definition name="dbonly">
	  <component name="mysql1" wrapper="mysql"><attribute name="dump" value="rubis"/></component>
	</definition>`)
	if err != nil {
		t.Fatal(err)
	}
	var dep3 *Deployment
	derr = errors.New("pending")
	p3.Deploy(def3, func(d *Deployment, err error) { dep3, derr = d, err })
	p3.Eng.Run()
	if derr != nil {
		t.Fatal(derr)
	}
	if _, err := dep3.FrontEnd(); err == nil {
		t.Fatal("db-only deployment reported a front end")
	}
}

func TestPlatformOptionDefaults(t *testing.T) {
	// Zero-valued options fall back to sane defaults.
	p := NewPlatform(Options{})
	if n := len(p.Pool.Nodes()); n != 9 {
		t.Fatalf("default pool = %d", n)
	}
	n, err := p.Pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if n.Config().CPUCapacity != 1.0 {
		t.Fatalf("default cpu = %v", n.Config().CPUCapacity)
	}
	// Logf defaults to a no-op; logging must not panic.
	p.Logf("hello %d", 42)
}

// A negative pool size is a caller's mistake, not a request for the
// default: NewPlatform panics with a message that names the field.
func TestNewPlatformRejectsNegativeNodes(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Options.Nodes is -1") {
			t.Fatalf("NewPlatform(Nodes: -1) panicked with %q, want a message naming Options.Nodes", msg)
		}
	}()
	NewPlatform(Options{Nodes: -1})
	t.Fatal("NewPlatform(Nodes: -1) returned")
}

func TestDumpRegistry(t *testing.T) {
	p := NewPlatform(DefaultOptions())
	if _, ok := p.Dump("ghost"); ok {
		t.Fatal("unknown dump found")
	}
	db, _ := smallDataset().InitialDatabase(1)
	p.RegisterDump("rubis", db)
	got, ok := p.Dump("rubis")
	if !ok || got != db {
		t.Fatal("dump registry broken")
	}
}
