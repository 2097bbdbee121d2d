// Package metrics provides the measurement primitives used by Jade's
// sensors and by the experiment harness: time series, temporal (moving)
// averages, spatial averages, utilization integrators and percentile
// summaries.
//
// All types operate on the simulation's virtual clock (float64 seconds)
// and are deliberately single-threaded: the discrete-event engine executes
// one event at a time, so no locking is needed.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Point is one (time, value) sample.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name   string
	Points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample. Samples must arrive in non-decreasing time order;
// out-of-order samples panic, since they indicate a simulation bug.
func (s *Series) Add(t, v float64) {
	if n := len(s.Points); n > 0 && t < s.Points[n-1].T {
		panic(fmt.Sprintf("metrics: series %q sample at %.6f after %.6f", s.Name, t, s.Points[n-1].T))
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Last returns the most recent sample, or a zero Point if empty.
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// MeanBetween returns the mean of samples with t0 <= T <= t1.
func (s *Series) MeanBetween(t0, t1 float64) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points {
		if p.T >= t0 && p.T <= t1 {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Max returns the maximum value, or 0 if empty.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// At returns the value in effect at time t: the last sample with T <= t.
// It returns 0 before the first sample.
func (s *Series) At(t float64) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.Points[i-1].V
}

// CSV renders the series as "t,v" lines with a header. Points are
// formatted with strconv.AppendFloat into one reused buffer rather than
// per-point fmt calls; the output is byte-identical to the old
// "%.3f,%.6f" formatting.
func (s *Series) CSV() string {
	buf := make([]byte, 0, 6+len(s.Name)+22*len(s.Points))
	buf = append(buf, "time,"...)
	buf = append(buf, s.Name...)
	buf = append(buf, '\n')
	for _, p := range s.Points {
		buf = strconv.AppendFloat(buf, p.T, 'f', 3, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, p.V, 'f', 6, 64)
		buf = append(buf, '\n')
	}
	return string(buf)
}

// MovingAverage computes a temporal moving average over a sliding window of
// the last Window seconds, as used by the paper's CPU sensors (60 s for the
// application tier, 90 s for the database tier).
type MovingAverage struct {
	Window float64
	buf    []Point // buf[head:] are the retained samples, oldest first
	head   int     // index of the oldest retained sample
}

// NewMovingAverage returns a moving average over the given window (seconds).
func NewMovingAverage(window float64) *MovingAverage {
	if window <= 0 {
		panic("metrics: moving average window must be positive")
	}
	return &MovingAverage{Window: window}
}

// Push records a sample at time t.
func (m *MovingAverage) Push(t, v float64) {
	m.buf = append(m.buf, Point{T: t, V: v})
	m.trim(t)
}

// trim expires samples older than the window by advancing the head index
// (no per-push copying); the buffer is compacted only once the dead
// prefix dominates, so each sample is moved at most once in its lifetime
// and trimming stays amortized O(1).
func (m *MovingAverage) trim(now float64) {
	h := m.head
	for h < len(m.buf) && m.buf[h].T < now-m.Window {
		h++
	}
	m.head = h
	if h > 64 && h*2 >= len(m.buf) {
		n := copy(m.buf, m.buf[h:])
		m.buf = m.buf[:n]
		m.head = 0
	}
}

// Avg returns the average of samples within the window ending at the most
// recent sample. It returns 0 when no samples are retained.
func (m *MovingAverage) Avg() float64 {
	live := m.buf[m.head:]
	if len(live) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range live {
		sum += p.V
	}
	return sum / float64(len(live))
}

// Count returns the number of samples currently inside the window.
func (m *MovingAverage) Count() int { return len(m.buf) - m.head }

// Full reports whether the window has been populated for at least its
// whole duration (i.e. the oldest retained sample is ~Window old).
func (m *MovingAverage) Full() bool {
	live := m.buf[m.head:]
	if len(live) < 2 {
		return false
	}
	return live[len(live)-1].T-live[0].T >= m.Window*0.9
}

// SpatialMean averages a snapshot across nodes (the paper's "spatial
// average" over all nodes hosting a replicated server). Empty input
// yields 0.
func SpatialMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// UtilizationMeter integrates a busy fraction over virtual time and
// reports the mean utilization between probe reads. Nodes use one to
// expose CPU usage to sensors.
type UtilizationMeter struct {
	lastT     float64
	busyAccum float64 // integral of busy fraction dt since construction
	busy      float64 // current busy fraction in [0,1]
	readT     float64
	readAccum float64
}

// SetBusy updates the current busy fraction at time now. The previous
// fraction is integrated over [lastT, now] first.
func (u *UtilizationMeter) SetBusy(now, fraction float64) {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	u.advance(now)
	u.busy = fraction
}

func (u *UtilizationMeter) advance(now float64) {
	if now > u.lastT {
		u.busyAccum += (now - u.lastT) * u.busy
		u.lastT = now
	}
}

// Read returns the mean utilization since the previous Read (or since
// construction for the first call).
func (u *UtilizationMeter) Read(now float64) float64 {
	u.advance(now)
	dt := now - u.readT
	if dt <= 0 {
		return u.busy
	}
	v := (u.busyAccum - u.readAccum) / dt
	u.readT = now
	u.readAccum = u.busyAccum
	return v
}

// Total returns the integral of the busy fraction since construction.
func (u *UtilizationMeter) Total(now float64) float64 {
	u.advance(now)
	return u.busyAccum
}

// Summary holds order statistics of a sample set.
type Summary struct {
	Count          int
	Mean, Min, Max float64
	P50, P90, P99  float64
}

// Summarize computes a Summary; it copies and sorts the input. Empty
// input yields the zero Summary (all fields 0).
func Summarize(vs []float64) Summary {
	if len(vs) == 0 {
		return Summary{}
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	sum := 0.0
	for _, v := range c {
		sum += v
	}
	return Summary{
		Count: len(c),
		Mean:  sum / float64(len(c)),
		Min:   c[0],
		Max:   c[len(c)-1],
		P50:   Percentile(c, 0.50),
		P90:   Percentile(c, 0.90),
		P99:   Percentile(c, 0.99),
	}
}

// Percentile returns the p-quantile (0 <= p <= 1) of a sorted sample
// using linear interpolation between the two closest ranks (the same
// convention as numpy's default): the quantile position is
// p*(len-1), and a fractional position blends the two neighboring
// samples. p <= 0 yields the minimum, p >= 1 the maximum, and an empty
// slice yields 0.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
