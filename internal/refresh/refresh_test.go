package refresh

import (
	"errors"
	"fmt"
	"testing"

	"jade/internal/trace"
)

func TestViewGetSetSubscribeOrder(t *testing.T) {
	v := NewView("sizing", 1)
	if got := v.Get(); got != 1 {
		t.Fatalf("initial Get = %d, want 1", got)
	}
	if v.Generation() != 0 {
		t.Fatalf("fresh view generation %d, want 0", v.Generation())
	}
	var order []string
	v.Subscribe(func(now float64, old, cur int) {
		order = append(order, fmt.Sprintf("a:%g:%d->%d", now, old, cur))
	})
	v.Subscribe(func(now float64, old, cur int) {
		order = append(order, fmt.Sprintf("b:%g:%d->%d", now, old, cur))
	})
	v.Set(10, 2)
	if got := v.Get(); got != 2 {
		t.Fatalf("Get after Set = %d, want 2", got)
	}
	if v.Generation() != 1 {
		t.Fatalf("generation %d, want 1", v.Generation())
	}
	want := []string{"a:10:1->2", "b:10:1->2"}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("subscriber order %v, want %v", order, want)
	}
}

func TestHubApplyAndDrainOrder(t *testing.T) {
	tr := trace.New(func() float64 { return 42 }, 0, 0)
	h := NewHub(tr)
	var applied []string
	h.Bind(
		func(source string, patch []byte) error { return nil },
		func(now float64, source string, patch []byte) error {
			applied = append(applied, source+":"+string(patch))
			return nil
		},
	)
	if err := h.Enqueue(SourceAdmin, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := h.Enqueue(SourceAdmin, []byte(`{"x":2}`)); err != nil {
		t.Fatal(err)
	}
	if n := h.Drain(5); n != 2 {
		t.Fatalf("drained %d, want 2", n)
	}
	if err := h.Apply(6, SourceOperator, []byte(`{"y":3}`)); err != nil {
		t.Fatal(err)
	}
	want := []string{`admin:{"x":1}`, `admin:{"x":2}`, `operator:{"y":3}`}
	for i, w := range want {
		if applied[i] != w {
			t.Fatalf("applied[%d] = %q, want %q", i, applied[i], w)
		}
	}
	if p := h.Pending(); p != 0 {
		t.Fatalf("%d pending after the drain, want 0", p)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d config spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.Kind != "config" || s.Open {
			t.Fatalf("span %+v: want closed config span", s)
		}
	}
}

func TestHubRejectsAndCounts(t *testing.T) {
	bad := errors.New("sizing.app.max: must be > sizing.app.min")
	h := NewHub(nil)
	h.Bind(
		func(source string, patch []byte) error {
			if string(patch) == "bad" {
				return bad
			}
			return nil
		},
		func(now float64, source string, patch []byte) error {
			if string(patch) == "bad-at-apply" {
				return bad
			}
			return nil
		},
	)
	if err := h.Enqueue(SourceAdmin, []byte("bad")); !errors.Is(err, bad) {
		t.Fatalf("Enqueue(bad) = %v, want the check error", err)
	}
	if err := h.Apply(1, SourceChaos, []byte("bad-at-apply")); !errors.Is(err, bad) {
		t.Fatalf("Apply = %v, want the apply error", err)
	}
	if p := h.Pending(); p != 0 {
		t.Fatalf("%d pending, want 0: a submission the check refuses is not queued", p)
	}
}

func TestHubCloseFreezes(t *testing.T) {
	h := NewHub(nil)
	h.Bind(nil, func(float64, string, []byte) error { return nil })
	if err := h.Enqueue(SourceAdmin, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	h.Close()
	if err := h.Enqueue(SourceAdmin, []byte("{}")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enqueue after Close = %v, want ErrClosed", err)
	}
	if n := h.Drain(1); n != 0 {
		t.Fatalf("Drain after Close applied %d queued submissions, want 0", n)
	}
}
