package jade

import (
	"fmt"
	"runtime"
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
