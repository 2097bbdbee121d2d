package metrics

import (
	"math"
	"testing"
)

// TestMovingAverageEdges is the table of window edge cases: empty window,
// single sample, samples exactly spanning the window, samples falling off
// the window boundary, and zero-length input never yielding NaN.
func TestMovingAverageEdges(t *testing.T) {
	type sample struct{ t, v float64 }
	cases := []struct {
		name      string
		window    float64
		samples   []sample
		wantAvg   float64
		wantCount int
		wantFull  bool
	}{
		{
			name:      "empty window",
			window:    60,
			samples:   nil,
			wantAvg:   0,
			wantCount: 0,
			wantFull:  false,
		},
		{
			name:      "single sample",
			window:    60,
			samples:   []sample{{10, 42}},
			wantAvg:   42,
			wantCount: 1,
			wantFull:  false,
		},
		{
			name:      "two samples inside window",
			window:    60,
			samples:   []sample{{0, 10}, {30, 30}},
			wantAvg:   20,
			wantCount: 2,
			wantFull:  false,
		},
		{
			name:      "window equal to sample span",
			window:    60,
			samples:   []sample{{0, 10}, {30, 20}, {60, 30}},
			wantAvg:   20,
			wantCount: 3,
			wantFull:  true,
		},
		{
			name:      "oldest sample exactly at the cutoff stays",
			window:    60,
			samples:   []sample{{0, 100}, {60, 0}},
			wantAvg:   50,
			wantCount: 2,
			wantFull:  true,
		},
		{
			name:      "old samples fall off",
			window:    60,
			samples:   []sample{{0, 1000}, {1, 1000}, {100, 10}, {110, 20}},
			wantAvg:   15,
			wantCount: 2,
			wantFull:  false,
		},
		{
			name:      "constant input stays constant",
			window:    10,
			samples:   []sample{{0, 7}, {5, 7}, {10, 7}, {15, 7}, {20, 7}},
			wantAvg:   7,
			wantCount: 3,
			wantFull:  true,
		},
		{
			name:      "zero values average to zero, not NaN",
			window:    60,
			samples:   []sample{{0, 0}, {1, 0}},
			wantAvg:   0,
			wantCount: 2,
			wantFull:  false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMovingAverage(tc.window)
			for _, s := range tc.samples {
				m.Push(s.t, s.v)
			}
			if got := m.Avg(); math.IsNaN(got) {
				t.Fatalf("Avg() is NaN")
			} else if math.Abs(got-tc.wantAvg) > 1e-12 {
				t.Fatalf("Avg() = %v, want %v", got, tc.wantAvg)
			}
			if got := m.Count(); got != tc.wantCount {
				t.Fatalf("Count() = %d, want %d", got, tc.wantCount)
			}
			if got := m.Full(); got != tc.wantFull {
				t.Fatalf("Full() = %v, want %v", got, tc.wantFull)
			}
		})
	}
}

func TestMovingAverageRejectsBadWindow(t *testing.T) {
	for _, w := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("window %v: no panic", w)
				}
			}()
			NewMovingAverage(w)
		}()
	}
}

func TestSpatialMeanEmptyIsZero(t *testing.T) {
	if v := SpatialMean(nil); v != 0 || math.IsNaN(v) {
		t.Fatalf("SpatialMean(nil) = %v, want 0", v)
	}
	if v := SpatialMean([]float64{3, 5}); v != 4 {
		t.Fatalf("SpatialMean = %v, want 4", v)
	}
}

func TestSummarizeAndPercentileEdges(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || math.IsNaN(s.Mean) {
		t.Fatalf("Summarize(nil) = %+v, want zero value", s)
	}
	one := Summarize([]float64{5})
	if one.Count != 1 || one.Mean != 5 || one.Min != 5 || one.Max != 5 || one.P99 != 5 {
		t.Fatalf("Summarize([5]) = %+v", one)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("Percentile(nil) = %v, want 0", got)
	}
	sorted := []float64{1, 2, 3, 4}
	if got := Percentile(sorted, -0.1); got != 1 {
		t.Fatalf("Percentile(p<0) = %v, want first", got)
	}
	if got := Percentile(sorted, 1.5); got != 4 {
		t.Fatalf("Percentile(p>1) = %v, want last", got)
	}
	if got := Percentile(sorted, 0.5); got != 2.5 {
		t.Fatalf("Percentile(0.5) = %v, want 2.5", got)
	}
}

func TestPercentileSingleAndDuplicates(t *testing.T) {
	// A single sample is every quantile.
	one := []float64{7}
	for _, p := range []float64{0, 0.5, 1} {
		if got := Percentile(one, p); got != 7 {
			t.Fatalf("Percentile([7], %v) = %v, want 7", p, got)
		}
	}
	// Duplicates: the interpolated quantile stays on the plateau until
	// the position crosses into the outlier.
	dup := []float64{2, 2, 2, 2, 5}
	if got := Percentile(dup, 0); got != 2 {
		t.Fatalf("Percentile(dup, 0) = %v, want 2", got)
	}
	if got := Percentile(dup, 0.75); got != 2 { // position 3, on the plateau
		t.Fatalf("Percentile(dup, 0.75) = %v, want 2", got)
	}
	if got := Percentile(dup, 0.9); math.Abs(got-3.8) > 1e-12 { // position 3.6 blends 2 and 5
		t.Fatalf("Percentile(dup, 0.9) = %v, want 3.8", got)
	}
	if got := Percentile(dup, 1); got != 5 {
		t.Fatalf("Percentile(dup, 1) = %v, want 5", got)
	}
}
