package cliutil

import (
	"flag"
	"io"
	"strings"
	"testing"

	"jade"
)

// The pre-namespace spellings are gone: each now fails like any other
// unknown flag, while the namespaced flag reaches the spec.
func TestOldSpellingsRejected(t *testing.T) {
	for _, old := range []string{"mtbf", "trace-requests", "metrics-dir", "metrics-interval", "http"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		RegisterSpecFlags(fs)
		err := fs.Parse([]string{"-" + old, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("-%s: err = %v, want flag provided but not defined", old, err)
		}
	}

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	sf := RegisterSpecFlags(fs)
	if err := fs.Parse([]string{"-fault.mtbf", "300"}); err != nil {
		t.Fatal(err)
	}
	if got := sf.VisitedNames(); len(got) != 1 || got[0] != "fault.mtbf" {
		t.Fatalf("visited = %v, want [fault.mtbf]", got)
	}
	spec := jade.DefaultSpec(1, true)
	if !sf.Apply(&spec, "fault.mtbf") || spec.Faults.MTBFSeconds != 300 {
		t.Fatalf("-fault.mtbf did not reach the spec: mtbf = %v", spec.Faults.MTBFSeconds)
	}
}
