package jade

import (
	"runtime"
	"sync/atomic"
)

// parallelism is the configured fan-out width; 0 means "use GOMAXPROCS".
var parallelism atomic.Int64

// SetParallelism sets the worker count used when experiments fan
// independent simulation runs out over goroutines (every experiment's
// runs, the chaos sweep's seeds). Values <= 0 restore the default,
// GOMAXPROCS. `jadectl experiment -parallel N` and `jadectl sweep
// -parallel N` route here.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
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
