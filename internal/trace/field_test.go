package trace

import (
	"bytes"
	"math"
	"strconv"
	"testing"
)

// sameFloat reports whether a and b are the same float64, telling -0
// from 0 and counting any two NaNs as equal.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkFieldText asserts that typed fields read back as the text the
// formatting constructors used to store, and that Float answers what
// parsing that text answers.
func checkFieldText(t *testing.T, v float64, i int64, id uint64, s string) {
	t.Helper()
	check := func(f Field, text string) {
		t.Helper()
		if got := f.Value(); got != text {
			t.Errorf("%s: Value() = %q, want %q", f.Key, got, text)
		}
		want, werr := strconv.ParseFloat(text, 64)
		got, ok := f.Float()
		if ok != (werr == nil) || (ok && !sameFloat(got, want)) {
			t.Errorf("%s %q: Float() = %v, %v; parsing the text gives %v, %v", f.Key, text, got, ok, want, werr)
		}
	}
	check(Ff("float", v), strconv.FormatFloat(v, 'g', -1, 64))
	if f, ok := Ff("float", v).Float(); !ok || !sameFloat(f, v) {
		t.Errorf("Ff(%v).Float() = %v, %v", v, f, ok)
	}
	check(Fi("int", int(i)), strconv.Itoa(int(i)))
	check(Fid("id", ID(id)), strconv.FormatUint(id, 10))
	check(F("string", s), s)
}

func TestFieldTextMatchesStrconv(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 1e21, 1e-7, 123456789012345678,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		1<<53 + 1, -(1<<53 + 1),
	}
	ints := []int64{0, 1, -1, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64}
	ids := []uint64{0, 1, 1<<53 + 1, math.MaxUint64}
	strs := []string{"", "ok", "tomcat1", "1e400", "-0", "NaN", "0x1p-2", "1_000"}
	for _, v := range floats {
		checkFieldText(t, v, 0, 0, "")
	}
	for _, i := range ints {
		checkFieldText(t, 0, i, 0, "")
	}
	for _, id := range ids {
		checkFieldText(t, 0, 0, id, "")
	}
	for _, s := range strs {
		checkFieldText(t, 0, 0, 0, s)
	}
	if got := Outcome(nil).Value(); got != "ok" {
		t.Errorf("Outcome(nil) = %q", got)
	}
}

// TestTypedFieldsExportAsText checks both exporters end to end: a trace
// recorded with typed fields exports the same bytes as one recorded with
// the text the formatting constructors used to store.
func TestTypedFieldsExportAsText(t *testing.T) {
	build := func(text bool) *Tracer {
		f := func(key string, typed Field, s string) Field {
			if text {
				return F(key, s)
			}
			return typed
		}
		now, tenth := 0.0, 0.1
		tr := New(clock(&now), 0, 0)
		req := tr.Begin(0, "request", "ViewItem", f("client", Fi("client", -42), "-42"))
		tr.Emit("loop.sample", "app", f("value", Ff("value", tenth+0.2), "0.30000000000000004"), f("cause", Fid("cause", ID(req)), "1"))
		now = 0.5
		hop := tr.Begin(req, "app", "tomcat1", f("queries", Fi("queries", 3), "3"))
		now = 0.75
		tr.End(hop, f("busy", Ff("busy", 1e-7), "1e-07"), f("svc", Ff("svc", math.Inf(1)), "+Inf"), Outcome(nil))
		tr.End(req, f("neg", Ff("neg", math.Copysign(0, -1)), "-0"), f("nan", Ff("nan", math.NaN()), "NaN"))
		return tr
	}
	for name, write := range map[string]func(*Tracer, *bytes.Buffer) error{
		"jsonl":  func(tr *Tracer, b *bytes.Buffer) error { return tr.WriteJSONL(b) },
		"chrome": func(tr *Tracer, b *bytes.Buffer) error { return tr.WriteChromeTrace(b) },
	} {
		var typed, text bytes.Buffer
		if err := write(build(false), &typed); err != nil {
			t.Fatal(err)
		}
		if err := write(build(true), &text); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(typed.Bytes(), text.Bytes()) {
			t.Errorf("%s export differs:\n%s\n--- from text fields ---\n%s", name, typed.String(), text.String())
		}
	}
}

// FuzzFieldText runs checkFieldText on arbitrary values; its committed
// corpus (testdata/fuzz/FuzzFieldText) replays under plain go test.
func FuzzFieldText(f *testing.F) {
	f.Add(0.5, int64(7), uint64(9), "ok")
	f.Fuzz(func(t *testing.T, v float64, i int64, id uint64, s string) {
		checkFieldText(t, v, i, id, s)
	})
}
