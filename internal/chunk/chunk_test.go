package chunk

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

type wide struct {
	a, b, c, d, e, f, g, h, i, j, k, l int64
}

// boundaries returns every index at which l starts a new chunk, up to n,
// with each one's neighbours.
func boundaries[T any](n int) []int {
	var l List[T]
	var out []int
	for i := 0; i < n; i++ {
		if len(l.tail) == cap(l.tail) {
			out = append(out, i-1, i, i+1)
		}
		var zero T
		l.Append(zero)
	}
	return out
}

// checkAgainstSlice appends n values to a List and a slice and holds
// every read of the list to the slice's.
func checkAgainstSlice[T any](t *testing.T, n int, mk func(int) T) {
	t.Helper()
	var l List[T]
	var ref []T
	var ptrs []*T
	for i := 0; i < n; i++ {
		l.Append(mk(i))
		ref = append(ref, mk(i))
		ptrs = append(ptrs, l.At(i))
	}
	if l.Len() != n {
		t.Fatalf("n=%d: Len %d", n, l.Len())
	}
	for i := 0; i < n; i++ {
		if p := l.At(i); p != ptrs[i] {
			t.Fatalf("n=%d: At(%d) moved after later appends", n, i)
		}
		if any(*ptrs[i]) != any(ref[i]) {
			t.Fatalf("n=%d: At(%d) = %v, want %v", n, i, *ptrs[i], ref[i])
		}
	}
	var walked []T
	for i := 0; i < l.Len(); {
		seg := l.Segment(i)
		if len(seg) == 0 || cap(seg) != len(seg) {
			t.Fatalf("n=%d: Segment(%d) has len %d cap %d", n, i, len(seg), cap(seg))
		}
		walked = append(walked, seg...)
		i += len(seg)
	}
	if !slices.EqualFunc(walked, ref, func(a, b T) bool { return any(a) == any(b) }) {
		t.Fatalf("n=%d: segments walk %v, want %v", n, walked, ref)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for k := 0; k < 20 && n > 0; k++ {
		i := rng.Intn(n + 1)
		j := i + rng.Intn(n+1-i)
		got := l.AppendTo(nil, i, j)
		if !slices.EqualFunc(got, ref[i:j], func(a, b T) bool { return any(a) == any(b) }) {
			t.Fatalf("n=%d: AppendTo(%d, %d) = %v, want %v", n, i, j, got, ref[i:j])
		}
	}
}

func TestListMatchesSlice(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 1000, 5000}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 10; k++ {
		lengths = append(lengths, rng.Intn(20000))
	}
	for _, n := range append(slices.Clone(lengths), boundaries[float64](5000)...) {
		checkAgainstSlice(t, max(n, 0), func(i int) float64 { return float64(i) * 1.5 })
	}
	for _, n := range append(slices.Clone(lengths), boundaries[byte](20000)...) {
		checkAgainstSlice(t, max(n, 0), func(i int) byte { return byte(i * 7) })
	}
	for _, n := range append(slices.Clone(lengths), boundaries[wide](1000)...) {
		checkAgainstSlice(t, max(n, 0), func(i int) wide { return wide{a: int64(i), l: -int64(i)} })
	}
	checkAgainstSlice(t, 10, func(i int) [3000]int64 { return [3000]int64{int64(i)} })
	checkAgainstSlice(t, 10, func(i int) struct{} { return struct{}{} })
}

// checkGeometry fills a list with n elements and checks its chunks: a
// power-of-two count each, never smaller than the one before, the first
// within firstBytes, and the last the largest power-of-two count that
// stays under largeBytes.
func checkGeometry[T any](t *testing.T, n int) {
	t.Helper()
	var l List[T]
	var zero T
	for i := 0; i < n; i++ {
		l.Append(zero)
	}
	size := int(unsafe.Sizeof(zero))
	for k, c := range l.chunks {
		if len(c)&(len(c)-1) != 0 || len(c)*size >= largeBytes {
			t.Errorf("%T chunk %d: %d elements of %d bytes: want a power of two under %d bytes", zero, k, len(c), size, largeBytes)
		}
		if k > 0 && len(c) < len(l.chunks[k-1]) {
			t.Errorf("%T chunk %d is smaller than chunk %d", zero, k, k-1)
		}
	}
	if first := len(l.chunks[0]); first > 1 && first*size > firstBytes {
		t.Errorf("%T first chunk holds %d elements of %d bytes, over %d bytes", zero, first, size, firstBytes)
	}
	if full := len(l.chunks[len(l.chunks)-1]); 2*full*size < largeBytes {
		t.Errorf("%T full chunk holds %d elements of %d bytes: twice that stays under %d bytes", zero, full, size, largeBytes)
	}
}

func TestChunkGeometry(t *testing.T) {
	checkGeometry[float64](t, 5000)
	checkGeometry[wide](t, 1000)
	checkGeometry[[3000]int64](t, 3)
}

// TestMoveMatchesCopy holds Move to copy over one slice, for overlapping
// ranges in both directions and across chunk boundaries.
func TestMoveMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(3000)
		var l List[int32]
		ref := make([]int32, n)
		for i := range ref {
			ref[i] = int32(i)
			l.Append(int32(i))
		}
		src, dst := rng.Intn(n), rng.Intn(n)
		m := rng.Intn(n - max(src, dst) + 1)
		copy(ref[dst:dst+m], ref[src:src+m])
		l.Move(dst, src, m)
		if got := l.AppendTo(nil, 0, n); !slices.Equal(got, ref) {
			t.Fatalf("n=%d Move(%d, %d, %d): list differs from copy", n, dst, src, m)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	var l List[int]
	l.Append(1)
	for name, f := range map[string]func(){
		"At(-1)":        func() { l.At(-1) },
		"At(Len)":       func() { l.At(1) },
		"Segment(Len)":  func() { l.Segment(1) },
		"AppendTo past": func() { l.AppendTo(nil, 0, 2) },
		"Move past":     func() { l.Move(0, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestAppendAllocs: growing allocates a chunk, and then nothing until it
// is full.
func TestAppendAllocs(t *testing.T) {
	var l List[float64]
	for i := 0; i < 1024; i++ {
		l.Append(1)
	}
	if a := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1024; i++ {
			l.Append(1)
		}
	}); a > 1 {
		t.Errorf("1024 appends allocated %v objects, want at most one chunk", a)
	}
}
