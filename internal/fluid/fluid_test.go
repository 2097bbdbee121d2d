package fluid

import (
	"math"
	"testing"

	"jade/internal/cluster"
	"jade/internal/sim"
)

func nodes(eng *sim.Engine, n int, capacity float64) []*cluster.Node {
	out := make([]*cluster.Node, n)
	for i := range out {
		out[i] = cluster.NewNode(eng, "n", cluster.Config{CPUCapacity: capacity, MemoryMB: 1024})
	}
	return out
}

// station builds a simple load-balanced station: per-request demand d
// split across k members, full d in the latency path.
func station(name string, d float64, members []*cluster.Node) *Station {
	return &Station{
		Name:    name,
		Demand:  func(k int) float64 { return d / float64(k) },
		Service: func(k int) float64 { return d },
		Members: func() []*cluster.Node { return members },
	}
}

func run(eng *sim.Engine, net *Network, seconds float64) {
	last := eng.Now()
	eng.Every(1.0, "fluid", func(now float64) {
		net.Tick(now, now-last)
		last = now
	})
	eng.RunUntil(eng.Now() + seconds)
}

func TestSteadyStateUtilization(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := nodes(eng, 2, 1.0)
	st := station("app", 0.01, ns)
	// 1000 clients, think 7 s, demand 0.01 split over 2 nodes:
	// λ ≈ 1000/7 ≈ 142.9 req/s, ρ = λ·0.005/1.0 ≈ 0.714.
	net := NewNetwork(Config{
		ThinkTime:  7,
		Population: func(float64) float64 { return 1000 },
	}, st)
	run(eng, net, 60)
	wantRho := (1000.0 / (7 + st.Wait())) * 0.005
	if math.Abs(st.Rho()-wantRho) > 0.01 {
		t.Fatalf("rho = %v, want ≈ %v", st.Rho(), wantRho)
	}
	if st.Backlog() != 0 {
		t.Fatalf("backlog %v in underload", st.Backlog())
	}
	// Background load reaches the member nodes.
	for _, n := range ns {
		if math.Abs(n.BackgroundLoad()-st.Rho()) > 1e-9 {
			t.Fatalf("node bg %v, want station rho %v", n.BackgroundLoad(), st.Rho())
		}
	}
	// Latency is the PS-inflated service demand.
	wantWait := 0.01 / (1 - st.Rho())
	if math.Abs(st.Wait()-wantWait) > 1e-6 {
		t.Fatalf("wait = %v, want %v", st.Wait(), wantWait)
	}
}

func TestOverloadBuildsBacklogAndSelfLimits(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := nodes(eng, 1, 1.0)
	st := station("app", 0.05, ns)
	// 1000 clients at think 7 can offer ~143 req/s; capacity is 20/s.
	net := NewNetwork(Config{
		ThinkTime:  7,
		Population: func(float64) float64 { return 1000 },
	}, st)
	run(eng, net, 120)
	if st.Rho() < 0.99 {
		t.Fatalf("overloaded station rho %v, want ~1", st.Rho())
	}
	if st.Backlog() <= 0 {
		t.Fatalf("no backlog under overload")
	}
	// The closed loop throttles the offered rate toward μ = 20/s as the
	// response estimate grows.
	if net.Rate() > 25 {
		t.Fatalf("offered rate %v did not self-limit toward 20/s", net.Rate())
	}
	if net.Response() < 1 {
		t.Fatalf("response %v under deep overload, want seconds", net.Response())
	}
}

func TestBacklogDrainsAfterLoadDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := nodes(eng, 1, 1.0)
	st := station("app", 0.05, ns)
	pop := 1000.0
	net := NewNetwork(Config{
		ThinkTime:  7,
		Population: func(float64) float64 { return pop },
	}, st)
	run(eng, net, 60)
	if st.Backlog() <= 0 {
		t.Fatalf("no backlog built")
	}
	pop = 0
	run(eng, net, 120)
	if st.Backlog() != 0 {
		t.Fatalf("backlog %v did not drain after load dropped", st.Backlog())
	}
	if got := ns[0].BackgroundLoad(); got != 0 {
		t.Fatalf("idle node keeps bg load %v", got)
	}
}

func TestBroadcastWritesLimitScaleOut(t *testing.T) {
	eng := sim.NewEngine(1)
	read, write := 0.03, 0.01
	demand := func(k int) float64 { return read/float64(k) + write }
	for _, k := range []int{1, 2, 4} {
		eng2 := sim.NewEngine(1)
		ns := nodes(eng2, k, 1.0)
		st := &Station{
			Name:    "db",
			Demand:  demand,
			Service: func(int) float64 { return read + write },
			Members: func() []*cluster.Node { return ns },
		}
		net := NewNetwork(Config{
			ThinkTime:  7,
			Population: func(float64) float64 { return 10000 },
		}, st)
		const horizon = 600
		run(eng2, net, horizon)
		// Saturated tier: throughput approaches μ(k) = 1/(read/k + write),
		// which is capped at 1/write no matter how many replicas join.
		mu := 1 / demand(k)
		got := net.Completed() / horizon
		if math.Abs(got-mu)/mu > 0.1 {
			t.Fatalf("k=%d: throughput %v, want near μ=%v", k, got, mu)
		}
		if got > 1/write {
			t.Fatalf("k=%d: throughput %v exceeds broadcast ceiling %v", k, got, 1/write)
		}
	}
	_ = eng
}

func TestFailedMemberSheddsToSurvivors(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := nodes(eng, 2, 1.0)
	st := station("app", 0.01, ns)
	net := NewNetwork(Config{
		ThinkTime:  7,
		Population: func(float64) float64 { return 500 },
	}, st)
	run(eng, net, 30)
	rhoBoth := st.Rho()
	ns[1].Fail()
	run(eng, net, 30)
	if st.Rho() < 1.8*rhoBoth {
		t.Fatalf("rho after failure %v, want ~2x %v", st.Rho(), rhoBoth)
	}
	if got := ns[1].BackgroundLoad(); got != 0 {
		t.Fatalf("failed node carries bg %v", got)
	}
}

func TestNoMembersStallsFlow(t *testing.T) {
	eng := sim.NewEngine(1)
	st := &Station{
		Name:    "app",
		Demand:  func(int) float64 { return 0.01 },
		Service: func(int) float64 { return 0.01 },
		Members: func() []*cluster.Node { return nil },
	}
	net := NewNetwork(Config{
		ThinkTime:  7,
		Population: func(float64) float64 { return 100 },
	}, st)
	run(eng, net, 10)
	if net.Completed() != 0 {
		t.Fatalf("completed %v with no servers", net.Completed())
	}
	if st.Backlog() <= 0 {
		t.Fatalf("no backlog with no servers")
	}
}

func TestChainedStationsAndCompletion(t *testing.T) {
	eng := sim.NewEngine(1)
	front := station("front", 0.0002, nodes(eng, 1, 1.0))
	app := station("app", 0.01, nodes(eng, 2, 1.0))
	db := station("db", 0.02, nodes(eng, 2, 1.0))
	net := NewNetwork(Config{
		ThinkTime:  7,
		Population: func(float64) float64 { return 500 },
	}, front, app, db)
	run(eng, net, 100)
	// Underloaded chain: completions track λ·t with R ≈ Σ waits.
	wantRate := 500 / (7 + net.Response())
	if math.Abs(net.Rate()-wantRate) > 0.5 {
		t.Fatalf("rate %v, want %v", net.Rate(), wantRate)
	}
	if net.Completed() < 0.9*wantRate*100 || net.Completed() > 1.1*wantRate*100 {
		t.Fatalf("completed %v over 100 s at %v/s", net.Completed(), wantRate)
	}
	rep := net.Report()
	if len(rep.Stations) != 3 || rep.Ticks != 100 {
		t.Fatalf("report %+v", rep)
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() Report {
		eng := sim.NewEngine(7)
		app := station("app", 0.013, nodes(eng, 2, 1.0))
		db := station("db", 0.03, nodes(eng, 2, 1.0))
		net := NewNetwork(Config{
			ThinkTime: 7,
			Population: func(now float64) float64 {
				return 100 + 10*now // ramp
			},
		}, app, db)
		run(eng, net, 200)
		return net.Report()
	}
	a, b := runOnce(), runOnce()
	if len(a.Stations) != len(b.Stations) {
		t.Fatalf("station count mismatch")
	}
	if a.Completed != b.Completed || a.PeakRate != b.PeakRate || a.PeakResponseSec != b.PeakResponseSec {
		t.Fatalf("replay mismatch: %+v vs %+v", a, b)
	}
	for i := range a.Stations {
		if a.Stations[i] != b.Stations[i] {
			t.Fatalf("station %d mismatch: %+v vs %+v", i, a.Stations[i], b.Stations[i])
		}
	}
}
