package core

import (
	"errors"
	"strings"
	"testing"

	"jade/internal/adl"
)

func TestExportADLRoundTrip(t *testing.T) {
	p, dep := deployThreeTier(t)
	out := dep.ExportADL()
	if err := out.Validate(p.wrapperSet()); err != nil {
		t.Fatalf("exported ADL invalid: %v", err)
	}
	// Same components, same composite placement.
	want := map[string]string{
		"plb1": "", "tomcat1": "app-tier", "cjdbc1": "db-tier", "mysql1": "db-tier",
	}
	got := map[string]string{}
	for _, pc := range out.AllComponents() {
		got[pc.Name] = pc.CompositePath
		// Placements are pinned to the live nodes.
		if pc.Node == "" {
			t.Fatalf("exported %s without a node pin", pc.Name)
		}
	}
	for name, path := range want {
		if got[name] != path {
			t.Fatalf("component %s exported under %q, want %q", name, got[name], path)
		}
	}
	// Original bindings survive.
	if len(out.Bindings) != len(dep.Def.Bindings) {
		t.Fatalf("bindings = %d, want %d", len(out.Bindings), len(dep.Def.Bindings))
	}
	// The exported text parses back.
	text, err := out.Render()
	if err != nil {
		t.Fatal(err)
	}
	back, err := adl.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.AllComponents()) != 4 {
		t.Fatalf("re-parsed components = %d", len(back.AllComponents()))
	}
}

func TestExportADLCapturesAutonomicReconfiguration(t *testing.T) {
	// Grow the app tier, export, and check the new replica with its
	// bindings appears in the document — the self-sized state becomes a
	// redeployable baseline.
	p, dep := deployThreeTier(t)
	tier, err := NewAppTier(p, dep, "plb1", "cjdbc1", []string{"tomcat1"})
	if err != nil {
		t.Fatal(err)
	}
	gerr := errors.New("pending")
	tier.Grow(func(err error) { gerr = err })
	p.Eng.Run()
	if gerr != nil {
		t.Fatal(gerr)
	}
	out := dep.ExportADL()
	text, err := out.Render()
	if err != nil {
		t.Fatal(err)
	}
	newName := tier.ReplicaNames()[1]
	if !strings.Contains(text, `name="`+newName+`"`) {
		t.Fatalf("exported ADL missing grown replica %s:\n%s", newName, text)
	}
	wantBindings := []string{
		"plb1.workers", newName + ".jdbc",
	}
	for _, w := range wantBindings {
		if !strings.Contains(text, w) {
			t.Fatalf("exported ADL missing binding %q:\n%s", w, text)
		}
	}
	// Exactly two plb worker bindings now.
	n := strings.Count(text, `client="plb1.workers"`)
	if n != 2 {
		t.Fatalf("plb1.workers bindings = %d, want 2", n)
	}
	if err := out.Validate(p.wrapperSet()); err != nil {
		t.Fatal(err)
	}
}

// Exported ADL must be reproducible: the Tomcat wrapper once set its
// default attributes by ranging over a map, so about one deployment in
// thirteen listed http-port before ajp-port.
func TestExportADLIsReproducible(t *testing.T) {
	var order, text string
	for i := 0; i < 64; i++ {
		_, dep := deployThreeTier(t)
		gotOrder := strings.Join(dep.MustComponent("tomcat1").Attributes(), ",")
		gotText, err := dep.ExportADL().Render()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			order, text = gotOrder, gotText
			if order != "ajp-port,http-port" {
				t.Fatalf("tomcat1 attributes = %s, want ajp-port,http-port", order)
			}
			continue
		}
		if gotOrder != order {
			t.Fatalf("deployment %d: tomcat1 attributes = %s, deployment 0 had %s", i, gotOrder, order)
		}
		if gotText != text {
			t.Fatalf("deployment %d exports different ADL text:\n%s\n-- deployment 0:\n%s", i, gotText, text)
		}
	}
}
