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
// interpolated quantiles NaN on both sides. It does not tell -0 from 0,
// and neither does sort.Float64s, which leaves the two in no set order.
func same(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// ordered orders every bucket of h and returns their concatenation in
// bucket order, which must be the slice sort.Float64s over all samples
// gives; it fails when a bucket is left with an unordered tail.
func ordered(t *testing.T, h *Histogram, where string) []float64 {
	t.Helper()
	var all []float64
	for i := range h.held {
		b := &h.held[i]
		h.scratch = b.order(h.scratch)
		if b.ordered != len(b.samples) {
			t.Fatalf("%s: bucket %d ordered %d of %d", where, i, b.ordered, len(b.samples))
		}
		all = append(all, b.samples...)
	}
	return all
}

// quantileGrid is every p the reads are checked at, beside the three a
// snapshot exposes: both ends, out-of-range values and a fine grid.
var quantileGrid = func() []float64 {
	ps := []float64{-0.1, 0, 1e-9, 0.5, 0.95, 0.99, 1 - 1e-9, 1, 1.1}
	for i := 1; i < 64; i++ {
		ps = append(ps, float64(i)/64)
	}
	return ps
}()

// checkAgainst compares everything a read exposes: first the snapshot
// and Quantile over the grid, which order only the buckets they read,
// then every bucket's ordered samples.
func checkAgainst(t *testing.T, h *Histogram, ref *refHistogram, snap HistogramSnapshot, where string) {
	t.Helper()
	want := ref.sorted()
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
	for _, p := range quantileGrid {
		if got, w := h.Quantile(p), metrics.Percentile(want, p); !same(got, w) {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", where, p, got, w)
		}
	}
	got := ordered(t, h, where)
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples held, reference has %d", where, len(got), len(want))
	}
	for i := range want {
		if cmp.Compare(got[i], want[i]) != 0 {
			t.Fatalf("%s: held[%d] = %v, sort.Float64s over all samples gives %v", where, i, got[i], want[i])
		}
	}
}

// feed appends one randomly shaped run of samples to both sides.
func feed(rng *rand.Rand, observe func(float64), max float64) {
	n := rng.Intn(40)
	switch rng.Intn(10) {
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
	case 9: // signed zeros and negatives, all in the first bucket
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				observe(math.Copysign(0, -1))
			case 1:
				observe(0)
			default:
				observe(-rng.Float64())
			}
		}
	}
}

// TestHistogramOrderMatchesFullSort drives random interleavings of
// Observe, Quantile and snapshot against refHistogram, which sorts every
// sample on every read. Mutants it was checked to catch: merging with <
// instead of cmp.Less (NaN lands mid-slice), skipping the tail sort,
// skipping the merge, holding NaN under +Inf, not counting it there, and
// interpolating from the low rank twice.
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

// TestSnapshotWithoutNewSamplesDoesNotSort pins what a scrape costs: it
// orders only the buckets its quantiles read; with no new sample it
// allocates the snapshot's two slices and leaves the held samples alone;
// and with new samples it touches a bucket's prefix only from the tail's
// insertion point up.
func TestSnapshotWithoutNewSamplesDoesNotSort(t *testing.T) {
	h := NewHistogram(nil)
	for i := 1000; i > 0; i-- {
		h.Observe(float64(i))
	}
	h.snapshot()
	inf := &h.held[len(h.held)-1]   // 66..1000: p50, p95 and p99 all fall here
	below := &h.held[len(h.held)-2] // 33..65, observed in descending order
	if inf.ordered != 935 || below.ordered != 0 || below.samples[0] != 65 {
		t.Fatalf("snapshot ordered buckets it does not read: +Inf %d of %d, below %d of %d (first %v)",
			inf.ordered, len(inf.samples), below.ordered, len(below.samples), below.samples[0])
	}
	if allocs := testing.AllocsPerRun(100, func() { h.snapshot() }); allocs != 2 {
		t.Fatalf("snapshot with no new samples allocates %v objects, want 2 (Bounds, Cumulative)", allocs)
	}
	// Disorder the prefix behind the histogram's back. A read that trusts
	// the prefix leaves the pair as it is; a full sort would repair it.
	inf.samples[10], inf.samples[11] = inf.samples[11], inf.samples[10]
	h.snapshot()
	h.Observe(500.5)
	h.Observe(2000)
	h.snapshot()
	if inf.samples[10] != 77 || inf.samples[11] != 76 {
		t.Fatalf("a read re-sorted the ordered prefix: samples[10:12] = %v", inf.samples[10:12])
	}
	if inf.ordered != 937 || inf.samples[435] != 500.5 || inf.samples[436] != 501 || inf.samples[936] != 2000 {
		t.Fatalf("tail not merged in place: ordered %d, samples[435:437] = %v, last %v",
			inf.ordered, inf.samples[435:437], inf.samples[936])
	}
}

var scrapeSink HistogramSnapshot

// BenchmarkHistogramScrape is the go-test twin of the benchmark's
// obs.driver_snapshot_ms: one scrape tick of k = 1e3 new samples over
// n = 1e6 held.
func BenchmarkHistogramScrape(b *testing.B) {
	const n, k = 1000000, 1000
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram(nil)
	for i := 0; i < n; i++ {
		h.Observe(rng.ExpFloat64() * 0.05)
	}
	h.snapshot()
	held := make([]int, len(h.held))
	for i := range h.held {
		held[i] = len(h.held[i].samples)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < k; j++ {
			h.Observe(rng.ExpFloat64() * 0.05)
		}
		scrapeSink = h.snapshot()
		// Drop each bucket's largest samples so every iteration scrapes
		// the same n in the same buckets.
		for i := range h.held {
			b := &h.held[i]
			b.samples = b.samples[:held[i]]
			b.ordered = min(b.ordered, held[i])
		}
	}
}
