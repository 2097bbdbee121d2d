// Package cluster simulates the hardware environment of the paper's
// evaluation: a pool of x86 nodes connected by a LAN. Each node has a CPU
// modeled as a processor-sharing server (all active jobs progress at
// capacity/n), a memory budget, an optional thrashing regime that degrades
// efficiency under extreme concurrency (reproducing the database
// "thrashing" the paper observes without Jade), and failure injection used
// by the self-recovery manager experiments.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"jade/internal/metrics"
	"jade/internal/sim"
)

// Errors returned by the package.
var (
	ErrNodeFailed    = errors.New("cluster: node has failed")
	ErrPoolExhausted = errors.New("cluster: no free node in the pool")
	ErrNotAllocated  = errors.New("cluster: node not allocated from this pool")
	ErrOutOfMemory   = errors.New("cluster: node out of memory")
)

// Job is a unit of CPU work executing on a node under processor sharing.
//
// A Job is owned by whoever allocated it. Submit allocates one per call;
// a caller of Run embeds one in its own per-request record, so queueing
// the work allocates nothing. The zero value is an idle job. From Run
// until its callback the job belongs to the node, which keeps a pointer
// to it: the owner must not copy, move or Run it again in that interval.
// Once the callback has begun the job is idle and may be Run again, on
// any node.
type Job struct {
	idx       int     // position in the node's job array plus one; zero while idle
	seq       uint64  // submission order, for deterministic FIFO tie-breaks
	remaining float64 // CPU-seconds of service still owed
	owner     JobOwner
}

// JobOwner is the continuation of a job queued with Run. The node calls
// exactly one of the two methods, once: JobDone when the job has received
// its service demand, JobFailed when the node crashed or the job was
// canceled first.
type JobOwner interface {
	JobDone()
	JobFailed()
}

// Config describes a node's resources.
type Config struct {
	// CPUCapacity is the node's processing rate in CPU-seconds per
	// second (1.0 = one core at reference speed).
	CPUCapacity float64
	// MemoryMB is the node's physical memory.
	MemoryMB float64
	// ThrashThreshold is the number of concurrent jobs beyond which the
	// node enters a thrashing regime. Zero disables thrashing.
	ThrashThreshold int
	// ThrashFactor controls how quickly efficiency degrades past the
	// threshold: effective capacity = CPUCapacity / (1 + f·(n-threshold)).
	ThrashFactor float64
}

// DefaultConfig matches the reference node used across experiments.
func DefaultConfig() Config {
	return Config{CPUCapacity: 1.0, MemoryMB: 1024}
}

// Node is one simulated cluster machine.
//
// Its CPU is the layer under every request of every run, so a job event
// (Run, a completion, Cancel, SetBackgroundLoad) is one pass over a dense
// array and allocates nothing. What the pass may not change is the
// arithmetic: every job receives remaining -= dt*rate at exactly the
// instants it always has, including the splits a Utilization, BusyTotal
// or UtilizationReader.Read makes by settling progress mid-job (two
// subtractions round differently from one). That is why there is no
// virtual clock with finish tags here: tag - V rounds differently from a
// running subtraction and moves completion instants in the last ulp.
// reference_test.go holds the array to the map walk it replaced.
type Node struct {
	eng  *sim.Engine
	name string
	cfg  Config

	// jobs is dense and unordered: a job's idx is its position plus one,
	// removal moves the last job into the hole, and nothing observable
	// depends on the order (the minimum does not; jobs leaving together
	// are sorted by (remaining, seq)).
	jobs []*Job
	// finished is the completion event's scratch list. onCompletion takes
	// it out of the node while the callbacks run, so a completion
	// dispatched from inside one of them builds its own.
	finished   []*Job
	lastUpdate float64
	completion sim.Handle
	// completeLabel and complete are the completion event's label and
	// callback, built once so the cancel-and-reschedule hot path neither
	// concatenates strings nor allocates a method value.
	completeLabel string
	complete      func()

	memUsed float64
	util    metrics.UtilizationMeter
	failed  bool

	// bgLoad is the fluid-workload background utilization in [0,
	// maxBackgroundLoad]: the fraction of the CPU consumed by the
	// aggregate (non-discrete) request flow. It feeds the utilization
	// meter — so CPU sensors see fluid load exactly as they see discrete
	// jobs — and shrinks the capacity available to discrete jobs, so
	// sampled requests experience the mean-field processor-sharing
	// contention of the flow they ride alongside.
	bgLoad float64

	// onFail callbacks fire once when the node fails (failure detectors
	// subscribe here).
	onFail []func(*Node)
	// onReboot callbacks fire when a failed node returns to service
	// (telemetry subscribes here).
	onReboot []func(*Node)

	// bookkeeping
	jobsStarted   uint64
	jobsCompleted uint64
	jobsAborted   uint64
}

// NewNode creates a node attached to the engine.
func NewNode(eng *sim.Engine, name string, cfg Config) *Node {
	if cfg.CPUCapacity <= 0 {
		panic(fmt.Sprintf("cluster: node %q with non-positive CPU capacity", name))
	}
	if cfg.MemoryMB <= 0 {
		panic(fmt.Sprintf("cluster: node %q with non-positive memory", name))
	}
	n := &Node{
		eng:           eng,
		name:          name,
		cfg:           cfg,
		completeLabel: "node:" + name + ":complete",
	}
	n.complete = n.onCompletion
	return n
}

// Name returns the node's hostname.
func (n *Node) Name() string { return n.name }

// Config returns the node's resource configuration.
func (n *Node) Config() Config { return n.cfg }

// Failed reports whether the node has crashed.
func (n *Node) Failed() bool { return n.failed }

// ActiveJobs returns the number of jobs currently sharing the CPU.
func (n *Node) ActiveJobs() int { return len(n.jobs) }

// JobsCompleted returns the number of jobs that ran to completion.
func (n *Node) JobsCompleted() uint64 { return n.jobsCompleted }

// effectiveCapacity returns the current service rate available to
// discrete jobs, accounting for the thrashing regime and the fluid
// background load (which consumes its share of the CPU first).
func (n *Node) effectiveCapacity() float64 {
	c := n.cfg.CPUCapacity
	if n.cfg.ThrashThreshold > 0 && len(n.jobs) > n.cfg.ThrashThreshold {
		over := float64(len(n.jobs) - n.cfg.ThrashThreshold)
		c = c / (1 + float64(n.cfg.ThrashFactor*over))
	}
	return float64(c * (1 - n.bgLoad))
}

// advance applies elapsed processor-sharing progress to all active jobs
// and returns the least service any of them still owes, leaving skip (a
// job about to be removed) out of that minimum; +Inf when no job counts.
func (n *Node) advance(skip *Job) float64 {
	now := n.eng.Now()
	dt := now - n.lastUpdate
	n.lastUpdate = now
	minRem := math.Inf(1)
	if len(n.jobs) == 0 {
		return minRem
	}
	rate := n.effectiveCapacity() / float64(len(n.jobs))
	for _, j := range n.jobs {
		if dt > 0 {
			j.remaining -= float64(dt * rate)
		}
		if j.remaining < minRem && j != skip {
			minRem = j.remaining
		}
	}
	return minRem
}

// reschedule replaces the completion event with one for the instant the
// job owing minRem, the least among the active jobs, will finish.
// Canceling a zero or already-fired handle is a no-op, so no guard is
// needed around the cancel.
func (n *Node) reschedule(minRem float64) {
	n.eng.Cancel(n.completion)
	n.completion = sim.Handle{}
	if len(n.jobs) == 0 {
		n.util.SetBusy(n.eng.Now(), n.bgLoad)
		return
	}
	// Work-conserving: discrete jobs soak up whatever the background
	// flow leaves, so the meter reads fully busy.
	n.util.SetBusy(n.eng.Now(), 1)
	if minRem < 0 {
		minRem = 0
	}
	dt := minRem * float64(len(n.jobs)) / n.effectiveCapacity()
	n.completion = n.eng.After(dt, n.completeLabel, n.complete)
}

// remove takes j out of the job array in O(1): the last job moves into its
// place.
func (n *Node) remove(j *Job) {
	last := len(n.jobs) - 1
	moved := n.jobs[last]
	n.jobs[j.idx-1] = moved
	moved.idx = j.idx
	n.jobs[last] = nil
	n.jobs = n.jobs[:last]
	j.idx = 0
}

// leavingOrder is the order in which jobs that leave the node in one
// instant are called back: least remaining service first, submission
// (FIFO) order among equals. Without the seq tie-break the order of
// equal-remaining jobs would be an accident of the array — able to
// reorder a request pipeline (e.g. writes traversing a balancer's proxy
// node).
func leavingOrder(a, b *Job) int {
	return cmp.Or(cmp.Compare(a.remaining, b.remaining), cmp.Compare(a.seq, b.seq))
}

// onCompletion is the completion event: one pass settles progress, moves
// the jobs that are done (within 1e-9 CPU-seconds of it, so a batch due in
// the same instant leaves together) to the finished list, closes the
// array over them and finds the least remaining service of the rest.
func (n *Node) onCompletion() {
	n.completion = sim.Handle{}
	now := n.eng.Now()
	dt := now - n.lastUpdate
	n.lastUpdate = now
	const eps = 1e-9
	finished := n.finished[:0]
	n.finished = nil
	rate := n.effectiveCapacity() / float64(len(n.jobs))
	minRem := math.Inf(1)
	live := n.jobs[:0]
	for _, j := range n.jobs {
		if dt > 0 {
			j.remaining -= float64(dt * rate)
		}
		if j.remaining <= eps {
			j.idx = 0
			finished = append(finished, j)
			continue
		}
		live = append(live, j)
		j.idx = len(live)
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	clear(n.jobs[len(live):])
	n.jobs = live
	if len(finished) > 1 {
		slices.SortFunc(finished, leavingOrder)
	}
	n.reschedule(minRem)
	for _, j := range finished {
		n.jobsCompleted++
		j.owner.JobDone()
	}
	clear(finished)
	n.finished = finished
}

// Run queues j, a job its caller owns, with the given service demand
// (CPU-seconds). Exactly one of owner's methods runs, once: JobDone when
// the job completes, JobFailed if the node crashes or the job is canceled
// first — at once, from inside Run, if the node is already down. Queueing
// a job that is still queued panics.
func (n *Node) Run(j *Job, service float64, owner JobOwner) {
	if service < 0 {
		panic(fmt.Sprintf("cluster: negative service demand %v on %s", service, n.name))
	}
	if j.idx != 0 {
		panic(fmt.Sprintf("cluster: job queued twice on %s", n.name))
	}
	if n.failed {
		owner.JobFailed()
		return
	}
	minRem := n.advance(nil)
	*j = Job{idx: len(n.jobs) + 1, seq: n.jobsStarted, remaining: service, owner: owner}
	n.jobs = append(n.jobs, j)
	n.jobsStarted++
	if service < minRem {
		minRem = service
	}
	n.reschedule(minRem)
}

// funcJob is the job Submit allocates: the callbacks it was given, behind
// the interface Run calls.
type funcJob struct {
	Job
	done, failed func()
}

func (f *funcJob) JobDone() {
	if f.done != nil {
		f.done()
	}
}

func (f *funcJob) JobFailed() {
	if f.failed != nil {
		f.failed()
	}
}

// Submit adds a CPU job of the given service demand (CPU-seconds). done
// runs when the job completes; failed (optional) runs if the node crashes
// or the job is canceled before completion. Submitting to a failed node
// invokes failed immediately and returns nil. It is Run with a job and an
// owner allocated here, for callers with no record of their own.
func (n *Node) Submit(service float64, done func(), failedFn func()) *Job {
	f := &funcJob{done: done, failed: failedFn}
	n.Run(&f.Job, service, f)
	if f.idx == 0 {
		return nil
	}
	return &f.Job
}

// Cancel aborts a job before completion; its failed callback runs. A nil
// or already finished job, or one queued on another node, is a no-op.
func (n *Node) Cancel(j *Job) {
	if j == nil || j.idx == 0 || j.idx > len(n.jobs) || n.jobs[j.idx-1] != j {
		return
	}
	minRem := n.advance(j)
	n.remove(j)
	n.jobsAborted++
	n.reschedule(minRem)
	j.owner.JobFailed()
}

// maxBackgroundLoad caps the fluid background utilization so discrete
// jobs always retain a sliver of capacity: a saturated fluid tier slows
// sampled requests to a crawl (mirroring a saturated processor-sharing
// server) instead of wedging them forever.
const maxBackgroundLoad = 0.995

// SetBackgroundLoad sets the fluid-workload background utilization, a
// fraction of CPUCapacity in [0, 0.995]. The fluid network calls this on
// every tick with each tier's queue-theoretic per-node utilization;
// values outside the range are clamped. Setting it on a failed node is a
// no-op (the load is dropped, as the flow reroutes around the failure).
func (n *Node) SetBackgroundLoad(frac float64) {
	if n.failed {
		return
	}
	if frac < 0 {
		frac = 0
	} else if frac > maxBackgroundLoad {
		frac = maxBackgroundLoad
	}
	if frac == n.bgLoad {
		return
	}
	minRem := n.advance(nil) // settle discrete progress under the old capacity split
	n.bgLoad = frac
	n.reschedule(minRem)
}

// BackgroundLoad returns the current fluid background utilization.
func (n *Node) BackgroundLoad() float64 { return n.bgLoad }

// GrantedShares returns the total CPU service rate currently granted on
// the node, in CPU-seconds per second: the processor-sharing rate of the
// discrete jobs plus the fluid background flow's share. Under processor
// sharing every active job receives an equal share of the effective
// capacity, so the sum can never exceed the configured CPUCapacity — the
// conservation invariant the testing harness checks (the background
// share is c·bg and discrete jobs split at most c·(1-bg)).
func (n *Node) GrantedShares() float64 {
	if n.failed {
		return 0
	}
	g := float64(n.bgLoad * n.cfg.CPUCapacity)
	if len(n.jobs) > 0 {
		g += n.effectiveCapacity()
	}
	return g
}

// Utilization returns the mean CPU busy fraction since the previous call
// (the quantity the paper's probes sample every second).
//
// The meter has read-reset semantics, so a node must have a single
// Utilization caller; independent observers (multiple sensors, the
// experiment accounting) must each use their own UtilizationReader.
func (n *Node) Utilization() float64 {
	n.advance(nil) // keep the meter aligned with job state
	return n.util.Read(n.eng.Now())
}

// UtilizationReader computes per-interval mean CPU usage for one observer
// without disturbing other observers of the same node.
type UtilizationReader struct {
	node      *Node
	lastT     float64
	lastTotal float64
}

// NewUtilizationReader starts an observer at the current instant.
func NewUtilizationReader(n *Node) *UtilizationReader {
	return &UtilizationReader{node: n, lastT: n.eng.Now(), lastTotal: n.BusyTotal()}
}

// Node returns the observed node.
func (r *UtilizationReader) Node() *Node { return r.node }

// Read returns the mean busy fraction since the previous Read (or since
// construction).
func (r *UtilizationReader) Read() float64 {
	now := r.node.eng.Now()
	total := r.node.BusyTotal()
	dt := now - r.lastT
	if dt <= 0 {
		return 0
	}
	v := (total - r.lastTotal) / dt
	r.lastT, r.lastTotal = now, total
	return v
}

// BusyTotal returns the integral of CPU busy time since boot.
func (n *Node) BusyTotal() float64 {
	n.advance(nil)
	return n.util.Total(n.eng.Now())
}

// AllocMemory reserves mb of memory, failing if it would exceed capacity.
func (n *Node) AllocMemory(mb float64) error {
	if mb < 0 {
		panic("cluster: negative memory allocation")
	}
	if n.memUsed+mb > n.cfg.MemoryMB {
		return fmt.Errorf("%w: %s needs %.0f MB, %.0f free", ErrOutOfMemory,
			n.name, mb, n.cfg.MemoryMB-n.memUsed)
	}
	n.memUsed += mb
	return nil
}

// FreeMemory releases mb of memory.
func (n *Node) FreeMemory(mb float64) {
	n.memUsed -= mb
	if n.memUsed < 0 {
		n.memUsed = 0
	}
}

// MemoryUsed returns used memory in MB.
func (n *Node) MemoryUsed() float64 { return n.memUsed }

// MemoryFraction returns used memory as a fraction of capacity.
func (n *Node) MemoryFraction() float64 { return n.memUsed / n.cfg.MemoryMB }

// OnFail registers a callback invoked (once) when the node fails.
func (n *Node) OnFail(fn func(*Node)) { n.onFail = append(n.onFail, fn) }

// OnReboot registers a callback invoked when a failed node reboots.
func (n *Node) OnReboot(fn func(*Node)) { n.onReboot = append(n.onReboot, fn) }

// Fail crashes the node: all in-flight jobs abort (their failed callbacks
// run), memory is wiped, and failure subscribers are notified. Failing a
// failed node is a no-op.
func (n *Node) Fail() {
	if n.failed {
		return
	}
	n.advance(nil)
	n.failed = true
	n.eng.Cancel(n.completion)
	n.completion = sim.Handle{}
	// The array itself becomes the abort list: a callback that reboots the
	// node and queues new work grows a fresh one.
	aborted := n.jobs
	n.jobs = nil
	for _, j := range aborted {
		j.idx = 0
	}
	slices.SortFunc(aborted, leavingOrder)
	n.jobsAborted += uint64(len(aborted))
	n.memUsed = 0
	n.bgLoad = 0 // the fluid flow reroutes; next tick reloads survivors
	n.util.SetBusy(n.eng.Now(), 0)
	for _, j := range aborted {
		j.owner.JobFailed()
	}
	for _, fn := range n.onFail {
		fn(n)
	}
}

// Reboot returns a failed node to service, empty of jobs and memory.
func (n *Node) Reboot() {
	if !n.failed {
		return
	}
	n.failed = false
	n.lastUpdate = n.eng.Now()
	for _, fn := range n.onReboot {
		fn(n)
	}
}
