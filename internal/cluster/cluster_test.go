package cluster

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"jade/internal/sim"
)

func newNode(eng *sim.Engine, cap float64) *Node {
	return NewNode(eng, "n", Config{CPUCapacity: cap, MemoryMB: 1024})
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSingleJobRunsAtFullCapacity(t *testing.T) {
	eng := sim.NewEngine(1)
	n := newNode(eng, 1)
	var doneAt float64 = -1
	n.Submit(2.0, func() { doneAt = eng.Now() }, nil)
	eng.Run()
	if !almost(doneAt, 2.0) {
		t.Fatalf("job of 2 CPU-s on 1.0 node finished at %v, want 2", doneAt)
	}
	if n.JobsCompleted() != 1 {
		t.Fatalf("JobsCompleted = %d", n.JobsCompleted())
	}
}

func TestProcessorSharingSlowsJobs(t *testing.T) {
	eng := sim.NewEngine(1)
	n := newNode(eng, 1)
	var aAt, bAt float64
	// Two equal jobs sharing one CPU finish together at 2× their service.
	n.Submit(1.0, func() { aAt = eng.Now() }, nil)
	n.Submit(1.0, func() { bAt = eng.Now() }, nil)
	eng.Run()
	if !almost(aAt, 2.0) || !almost(bAt, 2.0) {
		t.Fatalf("PS finish times = %v, %v; want 2, 2", aAt, bAt)
	}
}

func TestProcessorSharingStaggeredArrivals(t *testing.T) {
	eng := sim.NewEngine(1)
	n := newNode(eng, 1)
	var aAt, bAt float64
	n.Submit(1.0, func() { aAt = eng.Now() }, nil)
	eng.After(0.5, "arrive", func() {
		n.Submit(1.0, func() { bAt = eng.Now() }, nil)
	})
	eng.Run()
	// Job A: 0.5s alone (0.5 done), then shares: needs 0.5 more at rate
	// 0.5 → finishes at 1.5. Job B: at t=1.5 has done 0.5, then alone:
	// finishes at 2.0.
	if !almost(aAt, 1.5) {
		t.Fatalf("job A finished at %v, want 1.5", aAt)
	}
	if !almost(bAt, 2.0) {
		t.Fatalf("job B finished at %v, want 2.0", bAt)
	}
}

func TestCapacityScalesServiceRate(t *testing.T) {
	eng := sim.NewEngine(1)
	n := newNode(eng, 2) // 2 CPU-s per second
	var doneAt float64
	n.Submit(3.0, func() { doneAt = eng.Now() }, nil)
	eng.Run()
	if !almost(doneAt, 1.5) {
		t.Fatalf("finished at %v, want 1.5", doneAt)
	}
}

func TestZeroServiceJobCompletesImmediately(t *testing.T) {
	eng := sim.NewEngine(1)
	n := newNode(eng, 1)
	done := false
	n.Submit(0, func() { done = true }, nil)
	eng.Run()
	if !done {
		t.Fatal("zero-service job never completed")
	}
	if eng.Now() != 0 {
		t.Fatalf("clock advanced to %v for zero-service job", eng.Now())
	}
}

func TestNegativeServicePanics(t *testing.T) {
	eng := sim.NewEngine(1)
	n := newNode(eng, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Submit(-1) did not panic")
		}
	}()
	n.Submit(-1, nil, nil)
}

func TestUtilizationBusyAndIdle(t *testing.T) {
	eng := sim.NewEngine(1)
	n := newNode(eng, 1)
	n.Submit(2.0, nil, nil)
	eng.RunUntil(4)
	// Busy [0,2], idle [2,4] → 50% over [0,4].
	if got := n.Utilization(); !almost(got, 0.5) {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
	eng.RunUntil(6)
	if got := n.Utilization(); !almost(got, 0) {
		t.Fatalf("idle-interval Utilization = %v, want 0", got)
	}
}

func TestThrashingDegradesThroughput(t *testing.T) {
	eng := sim.NewEngine(1)
	healthy := NewNode(eng, "h", Config{CPUCapacity: 1, MemoryMB: 1024})
	thrash := NewNode(eng, "t", Config{CPUCapacity: 1, MemoryMB: 1024,
		ThrashThreshold: 4, ThrashFactor: 0.5})
	const jobs = 20
	var healthyDone, thrashDone float64
	for i := 0; i < jobs; i++ {
		healthy.Submit(0.1, func() { healthyDone = eng.Now() }, nil)
		thrash.Submit(0.1, func() { thrashDone = eng.Now() }, nil)
	}
	eng.Run()
	if !almost(healthyDone, 2.0) {
		t.Fatalf("healthy node finished at %v, want 2.0", healthyDone)
	}
	if thrashDone <= healthyDone*1.5 {
		t.Fatalf("thrashing node finished at %v, not significantly slower than %v",
			thrashDone, healthyDone)
	}
}

func TestCancelAbortsJob(t *testing.T) {
	eng := sim.NewEngine(1)
	n := newNode(eng, 1)
	var done, failed bool
	j := n.Submit(10, func() { done = true }, func() { failed = true })
	eng.After(1, "cancel", func() { n.Cancel(j) })
	eng.Run()
	if done {
		t.Fatal("canceled job completed")
	}
	if !failed {
		t.Fatal("canceled job did not run failure callback")
	}
	// Double cancel is a no-op.
	n.Cancel(j)
	n.Cancel(nil)
}

func TestFailAbortsAllJobsAndNotifies(t *testing.T) {
	eng := sim.NewEngine(1)
	n := newNode(eng, 1)
	var failures int
	var notified bool
	n.OnFail(func(x *Node) {
		notified = true
		if x != n {
			t.Error("OnFail got wrong node")
		}
	})
	for i := 0; i < 3; i++ {
		n.Submit(10, func() { t.Error("job completed on failed node") },
			func() { failures++ })
	}
	eng.After(1, "crash", n.Fail)
	eng.Run()
	if failures != 3 {
		t.Fatalf("failure callbacks = %d, want 3", failures)
	}
	if !notified {
		t.Fatal("OnFail not invoked")
	}
	if !n.Failed() {
		t.Fatal("Failed() = false after Fail")
	}
	// Failing again is a no-op.
	n.Fail()
	// Submitting to a failed node fails immediately.
	immediate := false
	if j := n.Submit(1, nil, func() { immediate = true }); j != nil || !immediate {
		t.Fatal("Submit on failed node should fail immediately and return nil")
	}
}

func TestRebootRestoresService(t *testing.T) {
	eng := sim.NewEngine(1)
	n := newNode(eng, 1)
	n.Fail()
	n.Reboot()
	if n.Failed() {
		t.Fatal("node still failed after Reboot")
	}
	done := false
	n.Submit(1, func() { done = true }, nil)
	eng.Run()
	if !done {
		t.Fatal("job did not run after reboot")
	}
	// Rebooting a healthy node is a no-op.
	n.Reboot()
}

func TestMemoryAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	n := NewNode(eng, "m", Config{CPUCapacity: 1, MemoryMB: 100})
	if err := n.AllocMemory(60); err != nil {
		t.Fatal(err)
	}
	if err := n.AllocMemory(60); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-allocation error = %v, want ErrOutOfMemory", err)
	}
	if !almost(n.MemoryFraction(), 0.6) {
		t.Fatalf("MemoryFraction = %v", n.MemoryFraction())
	}
	n.FreeMemory(30)
	if !almost(n.MemoryUsed(), 30) {
		t.Fatalf("MemoryUsed = %v", n.MemoryUsed())
	}
	n.FreeMemory(1000) // over-free clamps to zero
	if n.MemoryUsed() != 0 {
		t.Fatalf("MemoryUsed after over-free = %v", n.MemoryUsed())
	}
}

func TestFailWipesMemory(t *testing.T) {
	eng := sim.NewEngine(1)
	n := newNode(eng, 1)
	if err := n.AllocMemory(100); err != nil {
		t.Fatal(err)
	}
	n.Fail()
	if n.MemoryUsed() != 0 {
		t.Fatalf("failed node retains %v MB", n.MemoryUsed())
	}
}

func TestPoolAllocateReleaseCycle(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPool(eng, "node", 3, DefaultConfig())
	if p.Size() != 3 || p.FreeCount() != 3 {
		t.Fatalf("fresh pool: size=%d free=%d", p.Size(), p.FreeCount())
	}
	a, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "node1" {
		t.Fatalf("first allocation = %q, want node1 (deterministic order)", a.Name())
	}
	b, _ := p.Allocate()
	c, _ := p.Allocate()
	if _, err := p.Allocate(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("empty-pool error = %v", err)
	}
	if p.AllocatedCount() != 3 {
		t.Fatalf("AllocatedCount = %d", p.AllocatedCount())
	}
	if err := p.Release(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(b); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("double release error = %v", err)
	}
	d, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if d != b {
		t.Fatalf("reallocation returned %q, want released node %q", d.Name(), b.Name())
	}
	_ = a
	_ = c
}

func TestPoolSkipsFailedNodes(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPool(eng, "n", 2, DefaultConfig())
	n1, _ := p.Lookup("n1")
	n1.Fail()
	got, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "n2" {
		t.Fatalf("allocated %q, want healthy n2", got.Name())
	}
	if _, err := p.Allocate(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("allocating with only failed nodes: %v", err)
	}
	if p.FreeCount() != 0 {
		t.Fatalf("FreeCount counts failed node: %d", p.FreeCount())
	}
}

func TestPoolDiscardAndAdd(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPool(eng, "n", 1, DefaultConfig())
	n1, _ := p.Lookup("n1")
	p.Discard(n1)
	if p.Size() != 0 {
		t.Fatalf("Size after discard = %d", p.Size())
	}
	fresh := NewNode(eng, "spare1", DefaultConfig())
	p.Add(fresh)
	if got, ok := p.Lookup("spare1"); !ok || got != fresh {
		t.Fatal("added node not found")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	p.Add(fresh)
}

func TestPoolNodesSorted(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPool(eng, "n", 3, DefaultConfig())
	ns := p.Nodes()
	if len(ns) != 3 || ns[0].Name() != "n1" || ns[2].Name() != "n3" {
		t.Fatalf("Nodes() order wrong: %v", names(ns))
	}
	a, _ := p.Allocate()
	al := p.Allocated()
	if len(al) != 1 || al[0] != a {
		t.Fatalf("Allocated() = %v", names(al))
	}
}

func names(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Name()
	}
	return out
}

// Property: total CPU-seconds delivered never exceeds capacity × elapsed
// time, for arbitrary job arrival patterns.
func TestPropertyWorkConservation(t *testing.T) {
	f := func(raw []uint8) bool {
		eng := sim.NewEngine(11)
		n := NewNode(eng, "p", Config{CPUCapacity: 1, MemoryMB: 64})
		totalService := 0.0
		completedService := 0.0
		at := 0.0
		for _, r := range raw {
			at += float64(r%16) / 8
			svc := float64(r%32)/16 + 0.01
			totalService += svc
			eng.At(at, "submit", func() {
				n.Submit(svc, func() { completedService += svc }, nil)
			})
		}
		eng.Run()
		elapsed := eng.Now()
		busy := n.BusyTotal()
		// Work conservation: busy time == total completed service (cap 1.0)
		// and busy time <= elapsed.
		if busy > elapsed+1e-6 {
			return false
		}
		return math.Abs(busy-completedService) < 1e-4 || len(raw) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every submitted job either completes or fails exactly once,
// under random failure injection.
func TestPropertyJobAccounting(t *testing.T) {
	f := func(raw []uint8, failAt uint8) bool {
		eng := sim.NewEngine(13)
		n := NewNode(eng, "p", Config{CPUCapacity: 1, MemoryMB: 64})
		outcomes := 0
		at := 0.0
		for _, r := range raw {
			at += float64(r%8) / 4
			eng.At(at, "submit", func() {
				n.Submit(float64(r%16)/8, func() { outcomes++ }, func() { outcomes++ })
			})
		}
		eng.At(float64(failAt)/4, "crash", n.Fail)
		eng.Run()
		return outcomes == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// ownedJob is a caller-owned job record: the Job embedded, the record its
// own continuation.
type ownedJob struct {
	Job
	done, failed int
}

func (o *ownedJob) JobDone()   { o.done++ }
func (o *ownedJob) JobFailed() { o.failed++ }

// Regression test for DESIGN.md's bug (2): jobs that leave a node in one
// instant are called back by (remaining, seq), never by where they happen
// to sit in the job array.
func TestEqualJobsLeaveInSubmissionOrder(t *testing.T) {
	const k = 8
	var order []int
	record := func(i int) func() { return func() { order = append(order, i) } }
	requireOrder := func(what string, want ...int) {
		t.Helper()
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("%s: order %v, want %v", what, order, want)
		}
		order = nil
	}

	eng := sim.NewEngine(1)
	n := newNode(eng, 1)
	for i := 0; i < k; i++ {
		n.Submit(0.25, record(i), nil)
	}
	eng.Run()
	requireOrder("equal demands, one instant", 0, 1, 2, 3, 4, 5, 6, 7)

	// Canceling the job in slot 0 moves the last one there; canceling that
	// one moves the next. The survivors still complete first in, first out.
	jobs := make([]*Job, k)
	hog := n.Submit(100, nil, record(100))
	for i := 0; i < k; i++ {
		jobs[i] = n.Submit(0.25, record(i), record(10+i))
	}
	n.Cancel(hog)
	n.Cancel(jobs[k-1])
	requireOrder("cancels", 100, 10+k-1)
	eng.Run()
	requireOrder("equal demands after two swap-removals", 0, 1, 2, 3, 4, 5, 6)

	// A crash aborts least remaining first, submission order among equals,
	// again whatever a removal did to the array.
	hog = n.Submit(100, nil, record(100))
	for i, demand := range []float64{3, 1, 2, 1, 3} {
		n.Submit(demand, nil, record(i))
	}
	eng.RunUntil(eng.Now() + 0.5)
	n.Cancel(hog)
	order = nil
	n.Fail()
	requireOrder("crash", 1, 3, 2, 0, 4)
}

// Allocation budgets: a Submit is its one record from submission to
// callback (measured 1; 4 with the map: the job, the finished slice, the
// sort.Slice boxing and a bound completion callback per reschedule), a
// caller-owned job is nothing at all inside this package (measured 0).
func TestJobAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	n := newNode(eng, 1)
	done := func() {}
	owned := make([]ownedJob, 4)
	warm := func() {
		for i := range owned {
			n.Run(&owned[i].Job, 0.001*float64(i), &owned[i])
		}
		eng.Run()
	}
	warm() // grows the job array, the finished list and the engine's queue
	if got := testing.AllocsPerRun(200, warm); got != 0 {
		t.Errorf("four caller-owned jobs allocate %v objects, want 0", got)
	}
	if owned[0].done != 202 || owned[0].failed != 0 {
		t.Fatalf("owned job called back %d/%d times over 202 runs", owned[0].done, owned[0].failed)
	}
	got := testing.AllocsPerRun(200, func() {
		n.Submit(0.001, done, nil)
		n.Submit(0.001, done, nil)
		eng.Run()
	})
	if got > 2 {
		t.Errorf("two Submits allocate %v objects from submission to callback, want at most one each", got)
	}
}

func TestBadNodeConfigPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, cfg := range []Config{
		{CPUCapacity: 0, MemoryMB: 10},
		{CPUCapacity: 1, MemoryMB: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewNode(%+v) did not panic", cfg)
				}
			}()
			NewNode(eng, "bad", cfg)
		}()
	}
}

func BenchmarkProcessorSharing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		n := NewNode(eng, "b", DefaultConfig())
		for j := 0; j < 200; j++ {
			jitter := float64(j) * 0.01
			eng.At(jitter, "s", func() { n.Submit(0.05, nil, nil) })
		}
		eng.Run()
	}
}
