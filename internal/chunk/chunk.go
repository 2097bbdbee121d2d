// Package chunk provides List, an append-only sequence stored in fixed
// chunks. A slice grown by append past 256 elements reallocates at 1.25×
// and copies everything it holds, so a store that lasts a whole run
// allocates about 4.4× its final size and keeps old and new arrays alive
// together while it copies. A List allocates one chunk at a time and
// never copies or moves an element to grow: a store allocates about its
// final size once, and a pointer from At stays valid for the list's life.
package chunk

import (
	"math/bits"
	"slices"
	"unsafe"
)

// Chunk sizes in bytes. A full chunk holds the largest power-of-two
// number of elements that stays under largeBytes, the size from which the
// runtime allocates an object on its own pages; the first chunks double
// from firstBytes, so a list that holds a few elements allocates little.
const (
	firstBytes = 64
	largeBytes = 32 << 10
)

// List is an append-only sequence of T; the zero value is empty. A list
// is not copied once used: a copy would share its chunks. Below
// the full size, chunk j ≥ 1 holds as many elements as all the chunks
// before it, so the chunk of element i follows from i's highest bit;
// from the first full chunk on, every chunk is full.
type List[T any] struct {
	chunks [][]T // each allocated at its own full length
	tail   []T   // the last chunk's filled part; its capacity is the free room
	n      int
	// log2 of the first chunk's and of a full chunk's element count,
	// set when the first chunk is allocated.
	first, full uint8
}

// Len returns the number of elements.
func (l *List[T]) Len() int { return l.n }

// Append adds v at index Len().
func (l *List[T]) Append(v T) {
	if len(l.tail) == cap(l.tail) {
		l.grow()
	}
	l.tail = append(l.tail, v)
	l.n++
}

// grow allocates the next chunk.
func (l *List[T]) grow() {
	if l.chunks == nil {
		size := max(int(unsafe.Sizeof(*new(T))), 1)
		l.full = uint8(max(bits.Len(uint((largeBytes-1)/size)), 1) - 1)
		l.first = min(uint8(max(bits.Len(uint(firstBytes/size)), 1)-1), l.full)
	}
	k := len(l.chunks)
	size := 1 << l.full
	switch f := int(l.first); {
	case k == 0:
		size = 1 << f
	case k <= int(l.full)-f:
		size = 1 << (f + k - 1)
	}
	c := make([]T, size)
	l.chunks = append(l.chunks, c)
	l.tail = c[:0]
}

// locate returns the chunk holding element i and i's offset in it.
func (l *List[T]) locate(i int) (k, off int) {
	f, b := int(l.first), int(l.full)
	switch {
	case i >= 1<<b:
		return b - f + i>>b, i & (1<<b - 1)
	case i < 1<<f:
		return 0, i
	}
	h := bits.Len(uint(i)) - 1
	return h - f + 1, i - 1<<h
}

// At returns a pointer to element i, which stays valid however many
// elements are appended later.
func (l *List[T]) At(i int) *T {
	if uint(i) >= uint(l.n) {
		panic("chunk: index out of range")
	}
	k, off := l.locate(i)
	return &l.chunks[k][off]
}

// Segment returns the elements from i up to the end of i's chunk or of
// the list, whichever comes first: a view of the list, capped at its
// length, so writing through it writes the list and appending to it
// does not. Walking i forward by each segment's length visits every
// element in order:
//
//	for i := 0; i < l.Len(); {
//		seg := l.Segment(i)
//		...
//		i += len(seg)
//	}
func (l *List[T]) Segment(i int) []T {
	if uint(i) >= uint(l.n) {
		panic("chunk: index out of range")
	}
	k, off := l.locate(i)
	c := l.chunks[k]
	end := min(len(c), off+l.n-i)
	return c[off:end:end]
}

// AppendTo appends the elements [i, j) to dst and returns it, growing
// dst at most once.
func (l *List[T]) AppendTo(dst []T, i, j int) []T {
	dst = slices.Grow(dst, j-i)
	for i < j {
		seg := l.Segment(i)
		seg = seg[:min(len(seg), j-i)]
		dst = append(dst, seg...)
		i += len(seg)
	}
	return dst
}

// Move copies the n elements at src to dst, as copy does for slices
// that may overlap: a segment at a time, never element by element.
func (l *List[T]) Move(dst, src, n int) {
	if n <= 0 || dst == src {
		return
	}
	if dst < 0 || src < 0 || dst+n > l.n || src+n > l.n {
		panic("chunk: move out of range")
	}
	if dst < src {
		for n > 0 {
			d := l.Segment(dst)
			m := copy(d[:min(len(d), n)], l.Segment(src))
			dst, src, n = dst+m, src+m, n-m
		}
		return
	}
	// From the back, so each element is read before an overlapping
	// destination overwrites it.
	for n > 0 {
		d, s := l.before(dst+n), l.before(src+n)
		m := min(n, len(d), len(s))
		copy(d[len(d)-m:], s[len(s)-m:])
		n -= m
	}
}

// before returns the elements from the start of j-1's chunk up to j.
func (l *List[T]) before(j int) []T {
	k, off := l.locate(j - 1)
	return l.chunks[k][:off+1]
}
