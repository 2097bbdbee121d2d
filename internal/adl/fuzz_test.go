package adl

import (
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary text to the ADL parser: it must not panic, and
// whatever it accepts must render, and the rendered text must parse back to
// the same definition and render to the same bytes, so Render∘Parse is a
// fixpoint from its first application on. Found inputs go under
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		sampleADL,
		`<definition name="empty"/>`,
		`<definition name="n"><composite name="a"><composite name="b"><component name="c" wrapper="mysql" node="node1"/></composite></composite></definition>`,
		`<definition name="q&amp;&lt;&#34;x"><component name=" spaced " wrapper="tomcat"><attribute name="k" value="a&#xD;&#xA;b&#x9;c"/></component></definition>`,
		`<definition><binding client="a.b" server="c.d"/><binding client="" server="."/></definition>`,
		`<?xml version="1.0"?><!-- comment --><definition name="x"><unknown/><component name="y" wrapper="l4" extra="z"/></definition>`,
		`<other name="x"/>`,
		`<definition name="x">`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, err := Parse(text)
		if err != nil {
			return
		}
		once, err := d.Render()
		if err != nil {
			t.Fatalf("accepted %q but cannot render it: %v", text, err)
		}
		back, err := Parse(once)
		if err != nil {
			t.Fatalf("rendered %q does not parse: %v", once, err)
		}
		twice, err := back.Render()
		if err != nil {
			t.Fatalf("re-parsed %q does not render: %v", once, err)
		}
		if twice != once {
			t.Fatalf("Render∘Parse moved:\n%s\nthen\n%s", once, twice)
		}
		again, _ := Parse(twice)
		if !reflect.DeepEqual(back, again) {
			t.Fatalf("rendered text parses to %+v, then %+v", back, again)
		}
	})
}
