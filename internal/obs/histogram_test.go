package obs

import (
	"cmp"
	"math"
	"math/rand"
	"sort"
	"testing"

	"jade/internal/metrics"
)

// refHistogram is the reference the incremental ordering is pinned to: it
// keeps every sample in arrival order and sorts a copy of all of them on
// each read, which is what Histogram did before it kept an ordered prefix.
type refHistogram struct {
	bounds   []float64
	counts   []uint64
	samples  []float64
	sum      float64
	min, max float64
}

func newRefHistogram() *refHistogram {
	b := DefaultBuckets()
	return &refHistogram{bounds: b, counts: make([]uint64, len(b)+1), min: math.Inf(1), max: math.Inf(-1)}
}

func (r *refHistogram) observe(v float64) {
	r.counts[sort.SearchFloat64s(r.bounds, v)]++
	r.samples = append(r.samples, v)
	r.sum += v
	if v < r.min {
		r.min = v
	}
	if v > r.max {
		r.max = v
	}
}

func (r *refHistogram) sorted() []float64 {
	s := append([]float64(nil), r.samples...)
	sort.Float64s(s)
	return s
}

// same is == extended to NaN: inputs include NaN, which makes sums and
// interpolated quantiles NaN on both sides.
func same(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// checkAgainst compares everything a read exposes, after the read ordered h.
func checkAgainst(t *testing.T, h *Histogram, ref *refHistogram, snap HistogramSnapshot, where string) {
	t.Helper()
	want := ref.sorted()
	if h.ordered != len(h.samples) || len(h.samples) != len(want) {
		t.Fatalf("%s: ordered %d of %d retained, reference has %d", where, h.ordered, len(h.samples), len(want))
	}
	for i := range want {
		if cmp.Compare(h.samples[i], want[i]) != 0 {
			t.Fatalf("%s: retained[%d] = %v, sort.Float64s over all samples gives %v", where, i, h.samples[i], want[i])
		}
	}
	mn, mx := ref.min, ref.max
	if len(want) == 0 {
		mn, mx = 0, 0
	}
	if snap.Count != uint64(len(want)) || !same(snap.Sum, ref.sum) || !same(snap.Min, mn) || !same(snap.Max, mx) {
		t.Fatalf("%s: count/sum/min/max = %d/%v/%v/%v, want %d/%v/%v/%v",
			where, snap.Count, snap.Sum, snap.Min, snap.Max, len(want), ref.sum, mn, mx)
	}
	var run uint64
	for i, c := range ref.counts {
		run += c
		if snap.Cumulative[i] != run {
			t.Fatalf("%s: cumulative[%d] = %d, want %d", where, i, snap.Cumulative[i], run)
		}
	}
	for _, q := range []struct {
		name string
		got  float64
		p    float64
	}{{"p50", snap.P50, 0.50}, {"p95", snap.P95, 0.95}, {"p99", snap.P99, 0.99}} {
		if w := metrics.Percentile(want, q.p); !same(q.got, w) {
			t.Fatalf("%s: %s = %v, want %v", where, q.name, q.got, w)
		}
	}
}

// feed appends one randomly shaped run of samples to both sides.
func feed(rng *rand.Rand, observe func(float64), max float64) {
	n := rng.Intn(40)
	switch rng.Intn(9) {
	case 0: // uniform latencies
		for i := 0; i < n; i++ {
			observe(rng.Float64())
		}
	case 1: // duplicates from a small set
		for i := 0; i < n; i++ {
			observe(float64(rng.Intn(4)) / 8)
		}
	case 2: // already sorted
		v := rng.Float64()
		for i := 0; i < n; i++ {
			v += rng.Float64() / 16
			observe(v)
		}
	case 3: // reverse sorted
		v := 2 + rng.Float64()
		for i := 0; i < n; i++ {
			v -= rng.Float64() / 16
			observe(v)
		}
	case 4: // all equal
		v := rng.Float64()
		for i := 0; i < n; i++ {
			observe(v)
		}
	case 5: // every sample at or above the retained maximum: no merge needed
		if math.IsInf(max, 0) {
			max = 0
		}
		for i := 0; i < n; i++ {
			observe(max + float64(rng.Intn(3)))
		}
	case 6:
		observe(math.Inf(1))
	case 7:
		observe(math.Inf(-1))
	case 8:
		observe(math.NaN())
	}
}

// TestHistogramOrderMatchesFullSort drives random interleavings of
// Observe, Quantile and snapshot against refHistogram. Mutants it
// was checked to catch: merging with < instead of cmp.Less (NaN lands
// mid-slice), skipping the tail sort, and skipping the merge.
func TestHistogramOrderMatchesFullSort(t *testing.T) {
	for seed := int64(1); seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, ref := NewHistogram(nil), newRefHistogram()
		both := func(v float64) { h.Observe(v); ref.observe(v) }
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				feed(rng, both, ref.max)
			case op < 8:
				p := rng.Float64()*1.2 - 0.1 // also below 0 and above 1
				got, want := h.Quantile(p), metrics.Percentile(ref.sorted(), p)
				if !same(got, want) {
					t.Fatalf("seed %d step %d: Quantile(%v) = %v, want %v", seed, step, p, got, want)
				}
				if h.Count() != uint64(len(ref.samples)) || !same(h.Sum(), ref.sum) {
					t.Fatalf("seed %d step %d: count/sum = %d/%v, want %d/%v",
						seed, step, h.Count(), h.Sum(), len(ref.samples), ref.sum)
				}
			default: // two reads back to back: the second sees an empty tail
				checkAgainst(t, h, ref, h.snapshot(), "snapshot")
				checkAgainst(t, h, ref, h.snapshot(), "snapshot, empty tail")
			}
		}
		checkAgainst(t, h, ref, h.snapshot(), "final snapshot")
	}
}

// TestSnapshotWithoutNewSamplesDoesNotSort pins what a scrape costs: with
// no new sample it allocates the snapshot's two slices and leaves the
// retained samples alone, and with new samples it touches the prefix only
// from the tail's insertion point up.
func TestSnapshotWithoutNewSamplesDoesNotSort(t *testing.T) {
	h := NewHistogram(nil)
	for i := 1000; i > 0; i-- {
		h.Observe(float64(i))
	}
	h.snapshot()
	if allocs := testing.AllocsPerRun(100, func() { h.snapshot() }); allocs != 2 {
		t.Fatalf("snapshot with no new samples allocates %v objects, want 2 (Bounds, Cumulative)", allocs)
	}
	// Disorder the prefix behind the histogram's back. A read that trusts
	// the prefix leaves the pair as it is; a full sort would repair it.
	h.samples[10], h.samples[11] = h.samples[11], h.samples[10]
	h.snapshot()
	h.Observe(500.5)
	h.Observe(2000)
	h.snapshot()
	if h.samples[10] != 12 || h.samples[11] != 11 {
		t.Fatalf("a read re-sorted the ordered prefix: samples[10:12] = %v", h.samples[10:12])
	}
	if h.ordered != 1002 || h.samples[500] != 500.5 || h.samples[501] != 501 || h.samples[1001] != 2000 {
		t.Fatalf("tail not merged in place: ordered %d, samples[500:502] = %v, last %v",
			h.ordered, h.samples[500:502], h.samples[1001])
	}
}

var scrapeSink HistogramSnapshot

// BenchmarkHistogramScrape is the go-test twin of the benchmark's
// obs.driver_snapshot_ms: one scrape tick of k = 1e3 new samples over
// n = 1e6 retained.
func BenchmarkHistogramScrape(b *testing.B) {
	const n, k = 1000000, 1000
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram(nil)
	for i := 0; i < n; i++ {
		h.Observe(rng.ExpFloat64() * 0.05)
	}
	h.snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < k; j++ {
			h.Observe(rng.ExpFloat64() * 0.05)
		}
		scrapeSink = h.snapshot()
		// Drop the k largest so every iteration scrapes the same n.
		h.samples, h.ordered = h.samples[:n], n
	}
}
