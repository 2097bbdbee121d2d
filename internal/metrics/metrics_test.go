package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("cpu")
	if s.Len() != 0 || s.Max() != 0 {
		t.Fatal("empty series should report zeros")
	}
	s.Add(0, 1)
	s.Add(1, 3)
	s.Add(2, 2)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !almost(s.MeanBetween(0, 2), 2) {
		t.Fatalf("MeanBetween = %v", s.MeanBetween(0, 2))
	}
	if s.Max() != 3 {
		t.Fatalf("Max = %v", s.Max())
	}
	if got := s.Last(); got.T != 2 || got.V != 2 {
		t.Fatalf("Last = %+v", got)
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	s := NewSeries("x")
	s.Add(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add did not panic")
		}
	}()
	s.Add(4, 1)
}

func TestSeriesAtStepInterpolation(t *testing.T) {
	s := NewSeries("r")
	s.Add(10, 1)
	s.Add(20, 2)
	s.Add(30, 3)
	cases := []struct{ t, want float64 }{
		{5, 0}, {10, 1}, {15, 1}, {20, 2}, {29.9, 2}, {30, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestSeriesMeanBetween(t *testing.T) {
	s := NewSeries("m")
	for i := 0; i <= 10; i++ {
		s.Add(float64(i), float64(i))
	}
	if got := s.MeanBetween(3, 5); !almost(got, 4) {
		t.Fatalf("MeanBetween(3,5) = %v", got)
	}
	if got := s.MeanBetween(100, 200); got != 0 {
		t.Fatalf("MeanBetween on empty range = %v", got)
	}
}

func TestSeriesResample(t *testing.T) {
	s := NewSeries("r")
	s.Add(0, 1)
	s.Add(10, 5)
	pts := s.Resample(0, 20, 5)
	want := []float64{1, 1, 5, 5, 5}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if p.V != want[i] {
			t.Fatalf("resample[%d] = %v, want %v", i, p.V, want[i])
		}
	}
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries("latency")
	s.Add(1, 2)
	csv := s.CSV()
	if !strings.HasPrefix(csv, "time,latency\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "1.000,2.000000") {
		t.Fatalf("csv body wrong: %q", csv)
	}
}

func TestMovingAverageWindow(t *testing.T) {
	m := NewMovingAverage(10)
	if m.Avg() != 0 || m.Count() != 0 || m.Full() {
		t.Fatal("empty moving average should be zero and not full")
	}
	for i := 0; i <= 20; i++ {
		m.Push(float64(i), float64(i))
	}
	// Window is [10, 20]: samples 10..20.
	if m.Count() != 11 {
		t.Fatalf("Count = %d, want 11", m.Count())
	}
	if !almost(m.Avg(), 15) {
		t.Fatalf("Avg = %v, want 15", m.Avg())
	}
	if !m.Full() {
		t.Fatal("window spanning its whole duration should be Full")
	}
}

func TestMovingAverageSmoothsSpike(t *testing.T) {
	m := NewMovingAverage(60)
	for i := 0; i < 60; i++ {
		m.Push(float64(i), 0.2)
	}
	m.Push(60, 1.0) // single spike
	if m.Avg() > 0.25 {
		t.Fatalf("one spike moved a 60s average to %v", m.Avg())
	}
}

func TestMovingAveragePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMovingAverage(0) did not panic")
		}
	}()
	NewMovingAverage(0)
}

func TestUtilizationMeterIntegration(t *testing.T) {
	var u UtilizationMeter
	u.SetBusy(0, 1) // busy from t=0
	u.SetBusy(5, 0) // idle from t=5
	got := u.Read(10)
	if !almost(got, 0.5) {
		t.Fatalf("Read(10) = %v, want 0.5", got)
	}
	// Second interval [10, 20]: fully idle.
	if got := u.Read(20); !almost(got, 0) {
		t.Fatalf("second Read = %v, want 0", got)
	}
	u.SetBusy(20, 0.5)
	if got := u.Read(30); !almost(got, 0.5) {
		t.Fatalf("fractional busy Read = %v, want 0.5", got)
	}
	if !almost(u.Total(30), 10) {
		t.Fatalf("Total = %v, want 10", u.Total(30))
	}
}

func TestUtilizationMeterClampsFraction(t *testing.T) {
	var u UtilizationMeter
	u.SetBusy(0, 5)
	if got := u.Read(10); !almost(got, 1) {
		t.Fatalf("clamped Read = %v, want 1", got)
	}
	u.SetBusy(10, -3)
	if got := u.Read(20); !almost(got, 0) {
		t.Fatalf("negative clamped Read = %v, want 0", got)
	}
}

func TestUtilizationMeterZeroDt(t *testing.T) {
	var u UtilizationMeter
	u.SetBusy(5, 0.7)
	u.Read(5) // resets the read origin without time passing
	if got := u.Read(5); !almost(got, 0.7) {
		t.Fatalf("zero-dt Read = %v, want current busy 0.7", got)
	}
}

func TestThroughputWindowedRate(t *testing.T) {
	tp := NewThroughput(10)
	for i := 0; i < 20; i++ {
		tp.Observe(float64(i))
	}
	// Window [9.x, 19.x] at now=19.5 holds observations 10..19 → 10 events.
	if got := tp.Rate(19.5); !almost(got, 1.0) {
		t.Fatalf("Rate = %v, want 1.0", got)
	}
	if tp.Total() != 20 {
		t.Fatalf("Total = %d", tp.Total())
	}
}

func TestSpatialMean(t *testing.T) {
	if SpatialMean(nil) != 0 {
		t.Fatal("SpatialMean(nil) != 0")
	}
	if got := SpatialMean([]float64{0.2, 0.4, 0.6}); !almost(got, 0.4) {
		t.Fatalf("SpatialMean = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || !almost(s.Mean, 3) {
		t.Fatalf("Summary = %+v", s)
	}
	if !almost(s.P50, 3) {
		t.Fatalf("P50 = %v", s.P50)
	}
	if got := Summarize(nil); got.Count != 0 {
		t.Fatalf("Summarize(nil) = %+v", got)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); !almost(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
}

// Property: a moving average never exceeds the max nor goes below the min
// of its retained samples, for any monotone sample times.
func TestPropertyMovingAverageBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		m := NewMovingAverage(5)
		t0 := 0.0
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			t0 += float64(r%10) / 10
			v := float64(r) / 255
			m.Push(t0, v)
		}
		if len(raw) == 0 {
			return m.Avg() == 0
		}
		// Recompute bounds over the retained window only.
		for _, p := range m.buf {
			if p.V < lo {
				lo = p.V
			}
			if p.V > hi {
				hi = p.V
			}
		}
		a := m.Avg()
		return a >= lo-1e-12 && a <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize percentiles are ordered and within [Min, Max].
func TestPropertySummaryOrdering(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vs := make([]float64, len(raw))
		for i, r := range raw {
			vs[i] = float64(r)
		}
		s := Summarize(vs)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: utilization read over any probe schedule is within [0,1] for
// busy fractions within [0,1].
func TestPropertyUtilizationBounded(t *testing.T) {
	f := func(raw []uint8) bool {
		var u UtilizationMeter
		now := 0.0
		for i, r := range raw {
			now += float64(r%7) / 3
			if i%2 == 0 {
				u.SetBusy(now, float64(r)/255)
			} else {
				v := u.Read(now)
				if v < -1e-12 || v > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Series.At equals the value of the latest sample not after t.
func TestPropertySeriesAt(t *testing.T) {
	f := func(raw []uint8, probe uint8) bool {
		s := NewSeries("p")
		now := 0.0
		var pts []Point
		for _, r := range raw {
			now += float64(r % 5)
			s.Add(now, float64(r))
			pts = append(pts, Point{now, float64(r)})
		}
		q := float64(probe)
		want := 0.0
		for _, p := range pts {
			if p.T <= q {
				want = p.V
			}
		}
		return s.At(q) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewThroughput(-1) did not panic")
		}
	}()
	NewThroughput(-1)
}

func TestResamplePanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Resample(step=0) did not panic")
		}
	}()
	NewSeries("x").Resample(0, 1, 0)
}

func TestPercentileSortedInput(t *testing.T) {
	// Document that Percentile requires sorted input; Summarize sorts.
	vs := []float64{5, 1, 9, 3}
	sort.Float64s(vs)
	if got := Percentile(vs, 0.5); !almost(got, 4) {
		t.Fatalf("median = %v, want 4", got)
	}
}

func TestResampleNoFloatDrift(t *testing.T) {
	// Regression: accumulating t += step drifts by one ulp per iteration,
	// so long resamples with a fractional step dropped the final sample
	// and reported off-grid timestamps. Index-based stepping is exact.
	s := NewSeries("d")
	s.Add(0, 1)
	pts := s.Resample(0, 50, 0.1)
	if want := 501; len(pts) != want {
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	for i, p := range pts {
		if want := float64(i) * 0.1; p.T != want {
			t.Fatalf("resample[%d].T = %.17g, want exactly %.17g", i, p.T, want)
		}
	}
	if last := pts[len(pts)-1].T; last != 50 {
		t.Fatalf("final sample at %.17g, want exactly 50", last)
	}
}

func TestThroughputRateBounds(t *testing.T) {
	tp := NewThroughput(10)
	for i := 0; i < 20; i++ {
		tp.Observe(float64(i))
	}
	// now beyond every observation: window [15, 25] holds 15..19.
	if got := tp.Rate(25); !almost(got, 0.5) {
		t.Fatalf("Rate(25) = %v, want 0.5", got)
	}
	// now before the retained observations: nothing in [-10, 0] after
	// Observe trimmed everything below 9.
	if got := tp.Rate(0); got != 0 {
		t.Fatalf("Rate(0) = %v, want 0", got)
	}
	if got := NewThroughput(10).Rate(5); got != 0 {
		t.Fatalf("empty Rate = %v, want 0", got)
	}
}

// Property: the binary-search Rate matches a brute-force linear count.
func TestPropertyThroughputRateMatchesLinear(t *testing.T) {
	f := func(raw []uint8, probe uint8) bool {
		tp := NewThroughput(5)
		now := 0.0
		var kept []float64
		for _, r := range raw {
			now += float64(r%7) / 3
			tp.Observe(now)
		}
		kept = append(kept, tp.times[tp.head:]...)
		q := float64(probe) / 4
		n := 0
		for _, tt := range kept {
			if tt >= q-tp.Window && tt <= q {
				n++
			}
		}
		return almost(tp.Rate(q), float64(n)/tp.Window)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkThroughputRate(b *testing.B) {
	tp := NewThroughput(10000)
	for i := 0; i < 100000; i++ {
		tp.Observe(float64(i) / 10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.Rate(10000)
	}
}

func BenchmarkMovingAveragePush(b *testing.B) {
	m := NewMovingAverage(60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Push(float64(i), 0.5)
	}
}
