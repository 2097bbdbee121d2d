package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// spanLog keeps the benchmark's own spans in memory: set-up phases,
// iterations, post-run exports and layer drivers. It is used from the
// one goroutine that runs the workload, so open spans form a stack.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int
}

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: no parent
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under the innermost open one and returns the
// function that closes it and reports its duration.
func (l *spanLog) begin(name string) (end func() time.Duration) {
	id := len(l.spans) + 1
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	start := time.Since(l.t0)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNs: int64(start)})
	l.open = append(l.open, id)
	return func() time.Duration {
		stop := time.Since(l.t0)
		l.spans[id-1].EndNs = int64(stop)
		l.open = l.open[:len(l.open)-1]
		return stop - start
	}
}

// timed runs fn inside a span and returns how long it took.
func (l *spanLog) timed(name string, fn func()) time.Duration {
	end := l.begin(name)
	fn()
	return end()
}

func (l *spanLog) write(path string) error {
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// median returns the middle of vs (the mean of the middle two for an
// even count); 0 for no samples.
func median(vs []float64) float64 {
	return percentile(vs, 0.5)
}

// percentile returns the p-quantile of vs by linear interpolation
// between the two nearest ranks; callers state len(vs) beside it.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func minMax(vs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// usage is the process's resource use so far.
type usage struct {
	cpu       time.Duration // user + system, all threads
	maxRSSMiB float64       // high-water resident set (Linux: VmHWM)
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, maxRSSMiB: float64(ru.Maxrss) / 1024} // Linux reports KiB
}
