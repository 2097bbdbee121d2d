package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// laneDelays are the lane delays a lane program uses: 0, two on the
// heap's 1/8-second grid (so lane and heap events tie, and the 0.25 and
// 0.5 lanes tie with each other), and one off it.
var laneDelays = []float64{0, 0.25, 0.5, 1.0 / 3}

// laneProgram is a random program over one engine. With heap set, every
// lane schedule is replaced by Schedule(Now()+d) on the heap; everything
// else, including every random decision, is the same in both forms.
type laneProgram struct {
	eng   *Engine
	rng   *rand.Rand
	heap  bool
	hs    []Handle
	limit int
	// trace is the dispatch sequence, and Processed and Pending after
	// each step of the run loop.
	trace []string
}

func (p *laneProgram) onLane(d float64, label string, h Handler) Handle {
	if p.heap {
		return p.eng.Schedule(p.eng.Now()+d, label, h)
	}
	return p.eng.Lane(d).Schedule(label, h)
}

// add schedules one event: on a lane, or on the heap on the 1/8-second
// grid, which ties with the lanes' times.
func (p *laneProgram) add() {
	if len(p.hs) >= p.limit {
		return
	}
	i := len(p.hs)
	fire := Func(func() { p.act(i) })
	var h Handle
	if k := p.rng.Intn(len(laneDelays) + 2); k < len(laneDelays) {
		h = p.onLane(laneDelays[k], fmt.Sprintf("lane%d-%d", k, i), fire)
	} else {
		h = p.eng.Schedule(p.eng.Now()+float64(p.rng.Intn(8))*0.125, fmt.Sprintf("heap-%d", i), fire)
	}
	p.hs = append(p.hs, h)
}

// cancelSome cancels a random handle: a pending event, one that already
// fired or was canceled, or (inside a handler) possibly the firing one.
func (p *laneProgram) cancelSome() {
	p.eng.Cancel(p.hs[p.rng.Intn(len(p.hs))])
}

// act is event i's handler.
func (p *laneProgram) act(i int) {
	for n := p.rng.Intn(4); n > 0; n-- {
		p.add()
	}
	switch p.rng.Intn(12) {
	case 0, 1:
		p.cancelSome()
	case 2:
		p.eng.Cancel(p.hs[i]) // itself, while it fires: a no-op
	case 3:
		// The RPC-timer pattern: a burst on one lane, most of it canceled
		// at once, so the lane compacts with live events inside it.
		d := laneDelays[p.rng.Intn(len(laneDelays))]
		for n := 0; n < 70 && len(p.hs) < p.limit; n++ {
			j := len(p.hs)
			p.hs = append(p.hs, p.onLane(d, fmt.Sprintf("burst-%d", j), Func(func() { p.act(j) })))
			if p.rng.Intn(10) != 0 {
				p.eng.Cancel(p.hs[j])
			}
		}
	case 4:
		if p.rng.Intn(6) == 0 {
			p.eng.Stop()
		}
	}
}

func (p *laneProgram) record() {
	p.trace = append(p.trace, fmt.Sprintf("processed %d pending %d", p.eng.Processed(), p.eng.Pending()))
}

// runLaneProgram runs the seed's program with lanes, or with heap set,
// with every lane schedule on the heap, and returns its trace.
func runLaneProgram(seed int64, heap bool) []string {
	p := &laneProgram{eng: NewEngine(seed), rng: rand.New(rand.NewSource(seed)), heap: heap, limit: 8000}
	p.eng.SetEventHook(func(t float64, label string) {
		p.trace = append(p.trace, fmt.Sprintf("%.17g %s", t, label))
	})
	for i := 0; i < 30; i++ {
		p.add()
	}
	for i := 0; i < 8; i++ {
		p.cancelSome() // before the run
	}
	p.record()
	for p.eng.Pending() > 0 {
		switch p.rng.Intn(4) {
		case 0:
			p.eng.Run() // until a handler calls Stop, or the queue drains
		case 1:
			p.eng.Step()
		case 2:
			// Exactly at an event time: the grid is where heap and lane
			// events fall.
			t := math.Floor(p.eng.Now()*8)/8 + float64(p.rng.Intn(6))*0.125
			p.eng.RunUntil(math.Max(t, p.eng.Now()))
		case 3:
			for n := p.rng.Intn(4); n > 0; n-- {
				p.cancelSome() // between runs: after some events fired
			}
		}
		p.record()
	}
	return p.trace
}

// TestLanesMatchHeap runs random programs twice, once with fixed-delay
// lanes and once with every lane schedule replaced by Schedule(Now()+d),
// and requires the same (time, label) dispatch sequence, Processed and
// Pending after every step of the run loop. The programs mix heap
// schedules, four lane delays (0 and equal-time ties across lanes and
// with the heap included), cancels before, inside and after handlers,
// bursts that make a lane compact, RunUntil at event times, and Stop.
func TestLanesMatchHeap(t *testing.T) {
	var events int
	for seed := int64(1); seed <= 40; seed++ {
		lanes, heap := runLaneProgram(seed, false), runLaneProgram(seed, true)
		for i := 0; i < len(lanes) || i < len(heap); i++ {
			if i >= len(lanes) || i >= len(heap) || lanes[i] != heap[i] {
				got, want := "<none>", "<none>"
				if i < len(lanes) {
					got = lanes[i]
				}
				if i < len(heap) {
					want = heap[i]
				}
				t.Fatalf("seed %d: line %d is %q with lanes, %q on the heap alone", seed, i, got, want)
			}
		}
		events += len(lanes)
	}
	if events < 40*2000 {
		t.Fatalf("40 programs traced %d lines; they stopped too early to test anything", events)
	}
}

// TestLaneRPCTimerPatternStaysBounded: timers scheduled 30 s ahead on a
// lane and canceled milliseconds later, beside a standing population of
// heap timers and a delivery lane, keep the raw queue within twice the
// live events plus the compaction floor, as the heap alone does.
func TestLaneRPCTimerPatternStaysBounded(t *testing.T) {
	e := NewEngine(1)
	var c counter
	for i := 0; i < 350; i++ {
		e.Schedule(1e6+float64(i), "think", &c)
	}
	timers, deliver := e.Lane(30), e.Lane(0.0003)
	var open []Handle
	for i := 0; i < 50000; i++ {
		open = append(open, timers.Schedule("timeout", &c))
		deliver.Schedule("deliver", &c)
		e.Step()
		if len(open) > 20 {
			e.Cancel(open[0])
			open = open[1:]
		}
		if raw, live := e.PendingRaw(), e.Pending(); raw > 2*live+compactMinCancels {
			t.Fatalf("after %d timers: PendingRaw %d, Pending %d; canceled timers pile up", i+1, raw, live)
		}
	}
	if c != 50000 {
		t.Fatalf("%d deliveries fired, want 50000 and no timer", c)
	}
}

// A warm lane schedule+fire and schedule+cancel allocate nothing, as the
// heap's do (TestScheduleFireAllocs, TestScheduleCancelAllocs).
func TestLaneAllocs(t *testing.T) {
	e := NewEngine(1)
	var c counter
	l := e.Lane(0.25)
	for i := 0; i < 4096; i++ {
		l.Schedule("warm", &c)
	}
	e.Run()
	fire := testing.AllocsPerRun(1000, func() {
		l.Schedule("x", &c)
		e.Step()
	})
	cancel := testing.AllocsPerRun(1000, func() {
		e.Cancel(l.Schedule("x", &c))
	})
	if fire != 0 || cancel != 0 {
		t.Fatalf("lane schedule+fire allocates %.2f, schedule+cancel %.2f objects/op, want 0 and 0", fire, cancel)
	}
	if c != 4096+1001 {
		t.Fatalf("handler fired %d times, want %d", c, 4096+1001)
	}
}

// Lane returns one lane per delay and refuses a delay Schedule would
// refuse; a lane's handle cancels and reports like a heap event's.
func TestLaneIdentityAndHandles(t *testing.T) {
	e := NewEngine(1)
	if e.Lane(0.5) != e.Lane(0.5) || e.Lane(0.5) == e.Lane(0.25) {
		t.Fatal("Lane must return one lane per delay")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Lane(%v) did not panic", bad)
				}
			}()
			e.Lane(bad)
		}()
	}
	fired := false
	h := e.Lane(0.5).Schedule("victim", Func(func() { fired = true }))
	if !h.Pending() || e.Pending() != 1 {
		t.Fatal("a lane event must be pending")
	}
	e.Cancel(h)
	if h.Pending() || !h.Canceled() || e.Pending() != 0 || e.PendingRaw() != 1 {
		t.Fatalf("after Cancel: Pending %d, PendingRaw %d; want 0 and the 1 canceled event", e.Pending(), e.PendingRaw())
	}
	e.Run()
	if fired || e.PendingRaw() != 0 || e.Now() != 0 {
		t.Fatalf("canceled lane event fired=%v, PendingRaw %d, Now %v", fired, e.PendingRaw(), e.Now())
	}
}

// fabricClient is one emulated client of BenchmarkEngineFabricTraffic:
// think, send a request, which answers, and cancel the call's timer.
type fabricClient struct {
	e     *Engine
	lanes bool
	timer Handle
}

type (
	clientThink   fabricClient
	clientRequest fabricClient
	clientReply   fabricClient
)

func (c *fabricClient) after(d float64, label string, h Handler) Handle {
	if c.lanes {
		return c.e.Lane(d).Schedule(label, h)
	}
	return c.e.Schedule(c.e.Now()+d, label, h)
}

func (k *clientThink) Fire() {
	c := (*fabricClient)(k)
	c.timer = c.after(30, "net:rpc-timeout", Func(nop))
	c.after(0.0003, "net:app", (*clientRequest)(c))
}

func (k *clientRequest) Fire() {
	c := (*fabricClient)(k)
	c.after(0.0003, "net:app.reply", (*clientReply)(c))
}

func (k *clientReply) Fire() {
	c := (*fabricClient)(k)
	c.e.Cancel(c.timer)
	c.e.Schedule(c.e.Now()+c.e.Exponential(7), "think", (*clientThink)(c))
}

// BenchmarkEngineFabricTraffic is a queue shaped like planes_on's: 350
// clients thinking 7 s on average on the heap, each call a fixed 0.3 ms
// request and reply, and a 30 s timer per call that its reply cancels.
// It reports ns per dispatched event with the fabric's lanes and with
// every schedule on the heap.
func BenchmarkEngineFabricTraffic(b *testing.B) {
	for _, mode := range []struct {
		name  string
		lanes bool
	}{{"lanes", true}, {"heap", false}} {
		b.Run(mode.name, func(b *testing.B) {
			e := NewEngine(1)
			clients := make([]fabricClient, 350)
			for i := range clients {
				c := &clients[i]
				c.e, c.lanes = e, mode.lanes
				e.Schedule(e.Exponential(7), "think", (*clientThink)(c))
			}
			for i := 0; i < 100000; i++ { // reach the steady state
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}
