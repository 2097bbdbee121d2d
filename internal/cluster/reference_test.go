package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"jade/internal/metrics"
	"jade/internal/sim"
)

// referenceNode is Node's CPU scheduler as it was before the dense job
// array: a map[*Job]struct{} walked three times per event, a fresh
// finished slice and a sort.Slice per completion, one bound method value
// per reschedule. Kept verbatim (only the type names differ) as the oracle
// for TestSchedulerMatchesReferenceMapWalk, the way sqlengine's and
// netsim's reference_test.go keep what they replaced.
type referenceNode struct {
	eng  *sim.Engine
	name string
	cfg  Config

	jobs          map[*referenceJob]struct{}
	lastUpdate    float64
	completion    sim.Handle
	completeLabel string

	memUsed float64
	util    metrics.UtilizationMeter
	failed  bool
	bgLoad  float64

	onFail   []func(*referenceNode)
	onReboot []func(*referenceNode)

	jobsStarted   uint64
	jobsCompleted uint64
	jobsAborted   uint64
}

type referenceJob struct {
	node      *referenceNode
	seq       uint64
	remaining float64
	done      func()
	failed    func()
	canceled  bool
}

func newReferenceNode(eng *sim.Engine, name string, cfg Config) *referenceNode {
	return &referenceNode{
		eng:           eng,
		name:          name,
		cfg:           cfg,
		jobs:          make(map[*referenceJob]struct{}),
		completeLabel: "node:" + name + ":complete",
	}
}

func (n *referenceNode) ActiveJobs() int { return len(n.jobs) }

func (n *referenceNode) effectiveCapacity() float64 {
	c := n.cfg.CPUCapacity
	if n.cfg.ThrashThreshold > 0 && len(n.jobs) > n.cfg.ThrashThreshold {
		over := float64(len(n.jobs) - n.cfg.ThrashThreshold)
		c = c / (1 + n.cfg.ThrashFactor*over)
	}
	return c * (1 - n.bgLoad)
}

func (n *referenceNode) advance() {
	now := n.eng.Now()
	dt := now - n.lastUpdate
	if dt > 0 && len(n.jobs) > 0 {
		rate := n.effectiveCapacity() / float64(len(n.jobs))
		for j := range n.jobs {
			j.remaining -= dt * rate
		}
	}
	n.lastUpdate = now
}

func (n *referenceNode) reschedule() {
	n.eng.Cancel(n.completion)
	n.completion = sim.Handle{}
	if n.failed {
		n.util.SetBusy(n.eng.Now(), 0)
		return
	}
	if len(n.jobs) == 0 {
		n.util.SetBusy(n.eng.Now(), n.bgLoad)
		return
	}
	n.util.SetBusy(n.eng.Now(), 1)
	minRem := math.Inf(1)
	for j := range n.jobs {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	dt := minRem * float64(len(n.jobs)) / n.effectiveCapacity()
	n.completion = n.eng.After(dt, n.completeLabel, n.onCompletion)
}

func (n *referenceNode) onCompletion() {
	n.completion = sim.Handle{}
	n.advance()
	const eps = 1e-9
	var finished []*referenceJob
	for j := range n.jobs {
		if j.remaining <= eps {
			finished = append(finished, j)
		}
	}
	sort.Slice(finished, func(i, k int) bool {
		if finished[i].remaining != finished[k].remaining {
			return finished[i].remaining < finished[k].remaining
		}
		return finished[i].seq < finished[k].seq
	})
	for _, j := range finished {
		delete(n.jobs, j)
	}
	n.reschedule()
	for _, j := range finished {
		n.jobsCompleted++
		if j.done != nil {
			j.done()
		}
	}
}

func (n *referenceNode) Submit(service float64, done func(), failedFn func()) *referenceJob {
	if service < 0 {
		panic(fmt.Sprintf("cluster: negative service demand %v on %s", service, n.name))
	}
	if n.failed {
		if failedFn != nil {
			failedFn()
		}
		return nil
	}
	n.advance()
	j := &referenceJob{node: n, seq: n.jobsStarted, remaining: service, done: done, failed: failedFn}
	n.jobs[j] = struct{}{}
	n.jobsStarted++
	n.reschedule()
	return j
}

func (n *referenceNode) Cancel(j *referenceJob) {
	if j == nil || j.canceled {
		return
	}
	if _, ok := n.jobs[j]; !ok {
		return
	}
	j.canceled = true
	n.advance()
	delete(n.jobs, j)
	n.jobsAborted++
	n.reschedule()
	if j.failed != nil {
		j.failed()
	}
}

func (n *referenceNode) SetBackgroundLoad(frac float64) {
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
	n.advance()
	n.bgLoad = frac
	n.reschedule()
}

func (n *referenceNode) GrantedShares() float64 {
	if n.failed {
		return 0
	}
	g := n.bgLoad * n.cfg.CPUCapacity
	if len(n.jobs) > 0 {
		g += n.effectiveCapacity()
	}
	return g
}

func (n *referenceNode) Utilization() float64 {
	n.advance()
	return n.util.Read(n.eng.Now())
}

func (n *referenceNode) BusyTotal() float64 {
	n.advance()
	return n.util.Total(n.eng.Now())
}

func (n *referenceNode) Fail() {
	if n.failed {
		return
	}
	n.advance()
	n.failed = true
	n.eng.Cancel(n.completion)
	n.completion = sim.Handle{}
	aborted := make([]*referenceJob, 0, len(n.jobs))
	for j := range n.jobs {
		aborted = append(aborted, j)
	}
	sort.Slice(aborted, func(i, k int) bool {
		if aborted[i].remaining != aborted[k].remaining {
			return aborted[i].remaining < aborted[k].remaining
		}
		return aborted[i].seq < aborted[k].seq
	})
	n.jobs = make(map[*referenceJob]struct{})
	n.jobsAborted += uint64(len(aborted))
	n.memUsed = 0
	n.bgLoad = 0
	n.util.SetBusy(n.eng.Now(), 0)
	for _, j := range aborted {
		if j.failed != nil {
			j.failed()
		}
	}
	for _, fn := range n.onFail {
		fn(n)
	}
}

func (n *referenceNode) Reboot() {
	if !n.failed {
		return
	}
	n.failed = false
	n.lastUpdate = n.eng.Now()
	for _, fn := range n.onReboot {
		fn(n)
	}
}

// psNode is what the schedule script does to a node apart from queueing
// and canceling work, which need the implementation's job type.
type psNode interface {
	Fail()
	Reboot()
	SetBackgroundLoad(frac float64)
	Utilization() float64
	BusyTotal() float64
	GrantedShares() float64
	ActiveJobs() int
	counters() [3]uint64
}

func (n *Node) counters() [3]uint64 {
	return [3]uint64{n.jobsStarted, n.jobsCompleted, n.jobsAborted}
}

func (n *referenceNode) counters() [3]uint64 {
	return [3]uint64{n.jobsStarted, n.jobsCompleted, n.jobsAborted}
}

// schedTask is one unit of scripted work. A task is queued again only
// from its own callback or later, so one job record per task is enough:
// own for a task that goes through Run, job for the latest Submit, ref for
// the reference.
type schedTask struct {
	s         *schedScript
	id, node  int
	callbacks int
	own       Job
	job       *Job
	ref       *referenceJob
}

func (t *schedTask) JobDone()   { t.s.called(t, "done") }
func (t *schedTask) JobFailed() { t.s.called(t, "failed") }

// schedImpl is the part of the script that differs between the two
// schedulers.
type schedImpl interface {
	node(i int) psNode
	start(t *schedTask, service float64)
	cancel(node int, t *schedTask)
}

type arrayImpl struct{ nodes []*Node }

func (a arrayImpl) node(i int) psNode { return a.nodes[i] }

// start sends even tasks through Run with the record's own job and odd
// ones through Submit.
func (a arrayImpl) start(t *schedTask, service float64) {
	if t.id%2 == 0 {
		a.nodes[t.node].Run(&t.own, service, t)
		return
	}
	t.job = a.nodes[t.node].Submit(service, t.JobDone, t.JobFailed)
}

func (a arrayImpl) cancel(node int, t *schedTask) {
	if t.id%2 == 0 {
		a.nodes[node].Cancel(&t.own)
		return
	}
	a.nodes[node].Cancel(t.job)
}

type mapImpl struct{ nodes []*referenceNode }

func (m mapImpl) node(i int) psNode { return m.nodes[i] }

func (m mapImpl) start(t *schedTask, service float64) {
	t.ref = m.nodes[t.node].Submit(service, t.JobDone, t.JobFailed)
}

func (m mapImpl) cancel(node int, t *schedTask) { m.nodes[node].Cancel(t.ref) }

// schedScript runs one seeded schedule against one implementation and
// records everything observable, in order, in log. Operations and
// callbacks draw their choices from r as they happen, so two
// implementations see the same schedule for as long as they behave the
// same, which is as far as the comparison reads.
type schedScript struct {
	r     *rand.Rand
	eng   *sim.Engine
	impl  schedImpl
	tasks []*schedTask
	log   []string
	// how often the schedule reached the cases the test exists for
	equalBatches, liveCancels, staleCancels, crashes, nested, reuses int
}

func (s *schedScript) logf(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf("%016x ", math.Float64bits(s.eng.Now()))+fmt.Sprintf(format, args...))
}

// state appends what a node shows after an operation.
func (s *schedScript) state(i int) {
	n := s.impl.node(i)
	s.logf("node %d: jobs %d granted %016x counters %v", i, n.ActiveJobs(), math.Float64bits(n.GrantedShares()), n.counters())
}

func (s *schedScript) newTask(node int) *schedTask {
	t := &schedTask{s: s, id: len(s.tasks), node: node}
	s.tasks = append(s.tasks, t)
	return t
}

var equalDemands = []float64{0.01, 0.02, 0.05}

// demand draws a service demand: zero, one of a few values many jobs
// share, short or long.
func demand(r *rand.Rand) float64 {
	switch r.Intn(5) {
	case 0:
		return 0
	case 1, 2:
		return equalDemands[r.Intn(len(equalDemands))]
	case 3:
		return 0.001 + 0.009*r.Float64()
	}
	return 0.5 + 2.5*r.Float64()
}

// called is every task's callback; a task's first three also decide what
// happens next.
func (s *schedScript) called(t *schedTask, how string) {
	t.callbacks++
	s.logf("task %d %s", t.id, how)
	if t.callbacks > 3 {
		return
	}
	r := s.r
	switch r.Intn(6) {
	case 0: // the same record goes round again, from inside its callback
		s.reuses++
		s.impl.start(t, demand(r))
	case 1: // new work for the same node
		s.impl.start(s.newTask(t.node), demand(r))
	case 2: // two zero-demand jobs whose completion is dispatched from in here
		s.impl.start(s.newTask(t.node), 0)
		s.impl.start(s.newTask(t.node), 0)
		s.nested++
		s.eng.Step()
	case 3: // try again later: a job record reused after an abort
		s.eng.After(2*r.Float64(), "retry", func() {
			s.reuses++
			s.impl.start(t, demand(r))
		})
	}
}

// op performs one scripted operation.
func (s *schedScript) op() {
	r := s.r
	node := r.Intn(2)
	n := s.impl.node(node)
	switch r.Intn(12) {
	case 0, 1, 2: // a batch in one instant, half the time of equal demands
		size := 1 + r.Intn(4)
		equal := r.Intn(2) == 0
		d := equalDemands[r.Intn(len(equalDemands))]
		if equal && size > 1 {
			s.equalBatches++
		}
		for i := 0; i < size; i++ {
			if !equal {
				d = demand(r)
			}
			s.impl.start(s.newTask(node), d)
		}
	case 3, 4, 5: // cancel: live, finished, canceled before, never queued
		if len(s.tasks) == 0 {
			return
		}
		t := s.tasks[r.Intn(len(s.tasks))]
		if recent := len(s.tasks) - 6; recent > 0 && r.Intn(4) > 0 {
			t = s.tasks[recent+r.Intn(6)] // most likely still queued
		}
		on := t.node
		if r.Intn(5) == 0 {
			on = 1 - on // a job of the other node
		}
		before := s.impl.node(on).counters()[2]
		s.impl.cancel(on, t)
		if s.impl.node(on).counters()[2] > before {
			s.liveCancels++
		} else {
			s.staleCancels++
		}
		node = on
	case 6:
		s.crashes++
		n.Fail()
		s.eng.After(3*r.Float64(), "reboot", n.Reboot)
	case 7:
		n.SetBackgroundLoad(-0.1 + 1.2*r.Float64())
	case 8, 9:
		s.logf("node %d utilization %016x", node, math.Float64bits(n.Utilization()))
	case 10:
		s.logf("node %d busy %016x", node, math.Float64bits(n.BusyTotal()))
	case 11: // Cancel(nil): a task that was never queued holds no job
		s.impl.cancel(node, &schedTask{id: 1})
	}
	s.state(node)
}

// runSchedule plays schedule seed on two nodes of one engine: 80
// operations at random instants over some 13 s, a third of them sharing their
// instant with the one before, then runs the engine dry. Odd seeds thrash
// past three jobs.
func runSchedule(seed int64, build func(eng *sim.Engine, cfg Config) schedImpl) *schedScript {
	eng := sim.NewEngine(seed)
	cfg := Config{CPUCapacity: 1, MemoryMB: 64}
	if seed%2 == 1 {
		cfg.ThrashThreshold, cfg.ThrashFactor = 3, 0.2
	}
	r := rand.New(rand.NewSource(seed))
	s := &schedScript{r: r, eng: eng, impl: build(eng, cfg)}
	eng.SetEventHook(func(t float64, label string) {
		s.log = append(s.log, fmt.Sprintf("%016x event %s", math.Float64bits(t), label))
	})
	at := 0.0
	for k := 0; k < 80; k++ {
		if r.Intn(3) > 0 {
			at += 0.5 * r.Float64()
		}
		eng.At(at, "op", s.op)
	}
	eng.Run()
	for i := 0; i < 2; i++ {
		s.logf("final node %d busy %016x", i, math.Float64bits(s.impl.node(i).BusyTotal()))
		s.state(i)
	}
	return s
}

// TestSchedulerMatchesReferenceMapWalk plays 240 seeded schedules on the
// dense-array scheduler and on the map walk it replaced and requires the
// same transcript line for line: every dispatched engine event (instant
// by math.Float64bits, label), every callback and its instant, every
// Utilization and BusyTotal value, and after each operation the node's
// ActiveJobs, GrantedShares and three job counters.
//
// Mutants it was checked to catch, each by at least one schedule: the seq
// tie-break dropped from leavingOrder; remove forgetting the moved job's
// idx; the minimum taken over the finished jobs too; the finished buffer
// left in the node while callbacks run; the advance skipped in
// Utilization; idx not cleared by Fail.
func TestSchedulerMatchesReferenceMapWalk(t *testing.T) {
	var total schedScript
	for seed := int64(1); seed <= 240; seed++ {
		want := runSchedule(seed, func(eng *sim.Engine, cfg Config) schedImpl {
			return mapImpl{nodes: []*referenceNode{newReferenceNode(eng, "a", cfg), newReferenceNode(eng, "b", cfg)}}
		})
		got := runSchedule(seed, func(eng *sim.Engine, cfg Config) schedImpl {
			return arrayImpl{nodes: []*Node{NewNode(eng, "a", cfg), NewNode(eng, "b", cfg)}}
		})
		for i := 0; i < len(got.log) || i < len(want.log); i++ {
			if i >= len(got.log) || i >= len(want.log) || got.log[i] != want.log[i] {
				g, w := "<none>", "<none>"
				if i < len(got.log) {
					g = got.log[i]
				}
				if i < len(want.log) {
					w = want.log[i]
				}
				t.Fatalf("seed %d: line %d is %q, reference %q (%d vs %d lines)", seed, i, g, w, len(got.log), len(want.log))
			}
		}
		total.equalBatches += want.equalBatches
		total.liveCancels += want.liveCancels
		total.staleCancels += want.staleCancels
		total.crashes += want.crashes
		total.nested += want.nested
		total.reuses += want.reuses
	}
	if total.equalBatches < 240 || total.liveCancels < 240 || total.staleCancels < 240 ||
		total.crashes < 240 || total.nested < 240 || total.reuses < 240 {
		t.Fatalf("schedules too thin to mean anything: %d equal batches, %d live and %d stale cancels, %d crashes, %d nested completions, %d reused records",
			total.equalBatches, total.liveCancels, total.staleCancels, total.crashes, total.nested, total.reuses)
	}
}
