package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	for _, tc := range []struct {
		vs   []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{10, 20}, 0.99, 19.9},
	} {
		if got := percentile(tc.vs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g (n=%d)", tc.vs, tc.p, got, tc.want, len(tc.vs))
		}
	}
	vs := []float64{3, 1, 2}
	median(vs)
	if vs[0] != 3 || vs[1] != 1 || vs[2] != 2 {
		t.Errorf("median reordered its input: %v", vs)
	}
}

func TestSpanLogNesting(t *testing.T) {
	l := newSpanLog()
	endOuter := l.begin("outer")
	l.timed("inner", func() {})
	endOuter()
	l.timed("sibling", func() {})
	want := []struct {
		name   string
		parent int
	}{{"outer", 0}, {"inner", 1}, {"sibling", 0}}
	if len(l.spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(l.spans), len(want))
	}
	for i, w := range want {
		s := l.spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.ID != i+1 || s.EndNs < s.StartNs {
			t.Errorf("span %d: %+v, want name %s parent %d", i, s, w.name, w.parent)
		}
	}
	if in, out := l.spans[1], l.spans[0]; in.StartNs < out.StartNs || in.EndNs > out.EndNs {
		t.Errorf("inner span %+v not inside outer %+v", in, out)
	}
}
