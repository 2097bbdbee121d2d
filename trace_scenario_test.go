package jade

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"jade/internal/trace"
)

// tracedScenario is a short managed run with request sampling on, shared
// by the determinism and well-formedness tests.
func tracedScenario(seed int64) ScenarioConfig {
	cfg := DefaultScenario(seed, true)
	cfg.Profile = ConstantProfile{Clients: 60, Length: 120}
	cfg.TraceRequests = 10
	return cfg
}

// Two runs at the same seed must export byte-identical JSONL: IDs are
// assigned in execution order and no wall-clock state leaks in.
func TestTraceJSONLByteIdentical(t *testing.T) {
	var dumps [][]byte
	for i := 0; i < 2; i++ {
		r, err := RunScenario(tracedScenario(3))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Trace().WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, buf.Bytes())
	}
	if len(dumps[0]) == 0 {
		t.Fatal("empty JSONL export")
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Fatalf("same-seed JSONL exports differ (%d vs %d bytes)", len(dumps[0]), len(dumps[1]))
	}
}

// Span trees must be well-formed (no dangling parents, no unclosed
// management spans at scenario end) across a seed sweep.
func TestTraceWellFormedSeedSweep(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r, err := RunScenario(tracedScenario(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr := r.Trace()
		if err := tr.WellFormed(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := tr.Stat()
		if st.Spans == 0 {
			t.Fatalf("seed %d: no spans recorded", seed)
		}
		if st.SpansDropped != 0 {
			t.Fatalf("seed %d: %d spans dropped", seed, st.SpansDropped)
		}
	}
}

// The paper's ramp scenario must leave a complete causal record of a
// tier resize: a sensor sample event, a decision span referencing it,
// and an actuate span nested under the decision that closed "ok" —
// plus at least one full request chain request→forward→app→sql. The
// Chrome trace export of the same run must validate.
func TestManagedResizeDecisionChain(t *testing.T) {
	cfg := DefaultScenario(1, true)
	cfg.Profile = RampProfile{Base: 80, Peak: 500, StepPerMinute: 105, HoldAtPeak: 60}
	cfg.TraceRequests = 25
	r, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reconfigurations == 0 {
		t.Fatal("ramp scenario did not reconfigure; nothing to trace")
	}
	tr := r.Trace()
	if err := tr.WellFormed(); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	byID := map[trace.ID]trace.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	sampleEvents := map[trace.ID]bool{}
	for _, ev := range tr.ByKind("loop.sample") {
		sampleEvents[ev.ID] = true
	}
	if len(sampleEvents) == 0 {
		t.Fatal("no loop.sample events recorded")
	}

	field := func(s trace.Span, key string) (string, bool) {
		for _, f := range s.Fields {
			if f.Key == key {
				return f.Value(), true
			}
		}
		return "", false
	}

	// One complete sensor → decision → actuation chain.
	chains := 0
	for _, s := range spans {
		if s.Kind != "actuate" || s.Open {
			continue
		}
		if out, _ := field(s, "outcome"); out != "ok" {
			continue
		}
		dec, ok := byID[s.Parent]
		if !ok || dec.Kind != "decision" {
			continue
		}
		raw, ok := field(dec, "sample")
		if !ok {
			continue
		}
		sid, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			t.Fatalf("decision sample field %q: %v", raw, err)
		}
		if !sampleEvents[trace.ID(sid)] {
			continue
		}
		chains++
	}
	if chains == 0 {
		t.Fatal("no complete sensor→decision→actuate chain found")
	}
	t.Logf("complete resize chains: %d", chains)

	// One complete request chain through all tiers.
	depthKinds := func(s trace.Span) string {
		kinds := ""
		for hop, cur := 0, s; hop < 16; hop++ {
			kinds = cur.Kind + "/" + kinds
			if cur.Parent == 0 {
				break
			}
			cur = byID[cur.Parent]
		}
		return kinds
	}
	requestChain := false
	for _, s := range spans {
		if s.Kind == "sql" && depthKinds(s) == "request/forward/app/sql/" {
			requestChain = true
			break
		}
	}
	if !requestChain {
		t.Fatal("no request→forward→app→sql chain found")
	}

	// The same run exports a valid Chrome trace.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty Chrome trace")
	}
}

// Invariant violations must carry the trace tail for post-mortems.
func TestHarnessViolationCarriesTraceTail(t *testing.T) {
	// Indirect check via the harness wiring: the scenario installs
	// p.Trace().Tail, so a synthetic tail request must render events.
	r, err := RunScenario(tracedScenario(5))
	if err != nil {
		t.Fatal(err)
	}
	tail := r.Trace().Tail(10)
	if len(tail) == 0 {
		t.Fatal("trace tail empty after a traced run")
	}
	for _, line := range tail {
		if line == "" {
			t.Fatal("blank line in trace tail")
		}
	}
	_ = fmt.Sprintf("%v", tail)
}
