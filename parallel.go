package jade

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the configured fan-out width; 0 means "use GOMAXPROCS".
var parallelism atomic.Int64

// SetParallelism sets the worker count used when experiments fan
// independent simulation runs out over goroutines (every experiment's
// runs, the chaos sweep's seeds). 0 restores the default, GOMAXPROCS; a
// negative count panics. `jadectl experiment -parallel N` and `jadectl
// sweep -parallel N` route here, after refusing a negative N.
func SetParallelism(n int) {
	if n < 0 {
		panic(fmt.Sprintf("jade: SetParallelism(%d): the worker count must be 0 (GOMAXPROCS) or more", n))
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the experiment fan-out width: the last value given
// to SetParallelism, or GOMAXPROCS when unset.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// fanOut calls run for the indexes 0..n-1 on min(Parallelism(), n)
// workers and returns the lowest index whose run failed, or n. Workers
// claim indexes in ascending order and claim none above the lowest
// failure seen so far, so every index below the returned one has run and
// the result is the same at any worker count; an index above it may have
// run too. run is called concurrently, never twice for one index.
func fanOut(n int, run func(i int) (failed bool)) int {
	var next, first atomic.Int64
	first.Store(int64(n))
	var wg sync.WaitGroup
	for w := min(Parallelism(), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < first.Load(); i = next.Add(1) - 1 {
				if !run(int(i)) {
					continue
				}
				for cur := first.Load(); i < cur; cur = first.Load() {
					if first.CompareAndSwap(cur, i) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	return int(first.Load())
}
