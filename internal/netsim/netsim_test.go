package netsim

import (
	"errors"
	"math"
	"testing"

	"jade/internal/cluster"
	"jade/internal/obs"
	"jade/internal/sim"
)

func enabledConfig() Config {
	return Config{Enabled: true, Default: Link{LatencyMS: 1}}
}

func TestDisabledFabricIsDirect(t *testing.T) {
	eng := sim.NewEngine(1)
	f := New(eng, Config{}, 1)
	delivered := false
	f.Send("a", "b", "x", func() { delivered = true })
	if !delivered {
		t.Fatal("disabled fabric must deliver synchronously")
	}
	var got error
	f.Call("a", "b", "app", func(reply func(error)) { reply(nil) }, func(err error) { got = err })
	if got != nil {
		t.Fatalf("direct call failed: %v", got)
	}
	if f.Stats().Messages != 0 {
		t.Fatal("disabled fabric must not count messages")
	}
	// A nil fabric behaves the same (call sites carry no guards).
	var nilFab *Fabric
	if nilFab.Enabled() {
		t.Fatal("nil fabric reports enabled")
	}
	nilFab.Send("a", "b", "x", func() {})
	nilFab.Call("a", "b", "app", func(reply func(error)) { reply(nil) }, func(error) {})
}

func TestSendTakesLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	f := New(eng, Config{Enabled: true, Default: Link{LatencyMS: 2}}, 1)
	var at float64 = -1
	f.Send("a", "b", "x", func() { at = eng.Now() })
	if at != -1 {
		t.Fatal("delivery must not be synchronous")
	}
	eng.Run()
	if math.Abs(at-0.002) > 1e-9 {
		t.Fatalf("latency: delivered at %g, want 0.002", at)
	}
}

func TestSendJitterDeterministic(t *testing.T) {
	run := func() []float64 {
		eng := sim.NewEngine(7)
		f := New(eng, Config{Enabled: true, Default: Link{LatencyMS: 1, JitterMS: 5}}, 7)
		var times []float64
		for i := 0; i < 10; i++ {
			f.Send("a", "b", "x", func() { times = append(times, eng.Now()) })
		}
		eng.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != 10 {
		t.Fatalf("got %d deliveries", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %g vs %g", i, a[i], b[i])
		}
		if a[i] < 0.001 || a[i] >= 0.006 {
			t.Fatalf("delivery %d at %g outside latency+jitter bounds", i, a[i])
		}
	}
}

func TestLossDropsSomeMessages(t *testing.T) {
	eng := sim.NewEngine(3)
	f := New(eng, Config{Enabled: true, Default: Link{LatencyMS: 1, Loss: 0.3}}, 3)
	delivered := 0
	const n = 1000
	for i := 0; i < n; i++ {
		f.Send("a", "b", "x", func() { delivered++ })
	}
	eng.Run()
	st := f.Stats()
	if st.Messages != n || st.Delivered != uint64(delivered) {
		t.Fatalf("stats mismatch: %+v vs delivered=%d", st, delivered)
	}
	if st.DroppedLoss == 0 || st.DroppedLoss == n {
		t.Fatalf("loss 0.3 dropped %d of %d", st.DroppedLoss, n)
	}
	if frac := float64(st.DroppedLoss) / n; frac < 0.2 || frac > 0.4 {
		t.Fatalf("loss fraction %g far from 0.3", frac)
	}
}

func TestPartitionBlocksBothWaysAndHeals(t *testing.T) {
	eng := sim.NewEngine(1)
	f := New(eng, enabledConfig(), 1)
	id := f.Partition([]string{"a"}, []string{"b"})
	if !f.Partitioned("a", "b") || !f.Partitioned("b", "a") {
		t.Fatal("partition must be symmetric")
	}
	if f.Partitioned("a", "c") || f.Partitioned("c", "b") {
		t.Fatal("partition must only cut the named groups")
	}
	got := 0
	f.Send("a", "b", "x", func() { got++ })
	f.Send("b", "a", "x", func() { got++ })
	f.Send("a", "c", "x", func() { got++ })
	eng.Run()
	if got != 1 {
		t.Fatalf("delivered %d, want only a->c", got)
	}
	if f.Stats().DroppedPartition != 2 {
		t.Fatalf("dropped %d by partition, want 2", f.Stats().DroppedPartition)
	}
	f.Heal(id)
	if f.Partitioned("a", "b") {
		t.Fatal("heal did not remove the partition")
	}
}

func TestPartitionOneSidedCutsOffRest(t *testing.T) {
	eng := sim.NewEngine(1)
	f := New(eng, enabledConfig(), 1)
	f.Partition([]string{"a", "b"}, nil)
	if f.Partitioned("a", "b") {
		t.Fatal("same-side endpoints must stay connected")
	}
	if !f.Partitioned("a", "x") || !f.Partitioned("x", "b") {
		t.Fatal("one-sided cut must isolate the group from everyone else")
	}
	f.HealAll()
	if f.Partitioned("a", "x") {
		t.Fatal("HealAll left a partition")
	}
}

func TestCallRetriesThenSucceeds(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := enabledConfig()
	cfg.RPC = map[string]RPCBudget{"app": {TimeoutSeconds: 1, Attempts: 3, BackoffSeconds: 0.5}}
	f := New(eng, cfg, 1)
	attempts := 0
	var result error
	fired := 0
	f.Call("a", "b", "app", func(reply func(error)) {
		attempts++
		if attempts < 3 {
			return // swallow the request: the attempt times out
		}
		reply(nil)
	}, func(err error) { result = err; fired++ })
	eng.Run()
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if result != nil || fired != 1 {
		t.Fatalf("call failed (%v) or done fired %d times", result, fired)
	}
	if f.Stats().Retransmits != 2 {
		t.Fatalf("retransmits = %d, want 2", f.Stats().Retransmits)
	}
}

func TestCallAbandonsAfterBudget(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := enabledConfig()
	cfg.RPC = map[string]RPCBudget{"app": {TimeoutSeconds: 1, Attempts: 2, BackoffSeconds: 0.5}}
	f := New(eng, cfg, 1)
	f.Partition([]string{"a"}, []string{"b"})
	var result error
	fired := 0
	start := eng.Now()
	f.Call("a", "b", "app", func(reply func(error)) {
		t.Fatal("attempt must never run across a partition")
	}, func(err error) { result = err; fired++ })
	eng.Run()
	if fired != 1 || !errors.Is(result, ErrRPCTimeout) {
		t.Fatalf("done fired %d with %v, want one ErrRPCTimeout", fired, result)
	}
	// Two 1 s attempts and one 0.5 s backoff: abandoned at t=2.5.
	if el := eng.Now() - start; math.Abs(el-2.5) > 1e-9 {
		t.Fatalf("abandoned after %g s, want 2.5", el)
	}
	if f.Stats().Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", f.Stats().Abandoned)
	}
}

func TestCallLateReplyDiscarded(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := enabledConfig()
	cfg.RPC = map[string]RPCBudget{"app": {TimeoutSeconds: 1, Attempts: 2, BackoffSeconds: 0.5}}
	f := New(eng, cfg, 1)
	var replies []func(error)
	fired := 0
	f.Call("a", "b", "app", func(reply func(error)) {
		replies = append(replies, reply)
		if len(replies) == 2 {
			// Second attempt answers; then the first, stale attempt does.
			replies[1](nil)
			replies[0](errors.New("stale"))
		}
	}, func(err error) {
		fired++
		if err != nil {
			t.Fatalf("first response should win: %v", err)
		}
	})
	eng.Run()
	if fired != 1 {
		t.Fatalf("done fired %d times, want exactly 1", fired)
	}
	// Both answers crossed the network: two requests, two replies.
	if got := f.Stats().Messages; got != 4 {
		t.Fatalf("messages = %d, want 4", got)
	}
}

// A callee that replies twice on one attempt sends two reply messages,
// each carrying the error it was given.
func TestCallRepliedTwice(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	for _, tc := range []struct {
		name      string
		loseFirst bool
		want      error
	}{
		{"both arrive: the first settles with its own error", false, first},
		{"first lost: the second still carries its own error", true, second},
	} {
		eng := sim.NewEngine(1)
		f := New(eng, enabledConfig(), 1)
		var got []error
		f.Call("a", "b", "app", func(reply func(error)) {
			if tc.loseFirst {
				id := f.Partition([]string{"a"}, []string{"b"})
				reply(first)
				f.Heal(id)
			} else {
				reply(first)
			}
			reply(second)
		}, func(err error) { got = append(got, err) })
		eng.Run()
		if len(got) != 1 || got[0] != tc.want {
			t.Fatalf("%s: done got %v, want [%v]", tc.name, got, tc.want)
		}
		if m := f.Stats().Messages; m != 3 {
			t.Fatalf("%s: messages = %d, want one request and two replies", tc.name, m)
		}
	}
}

// A reply that comes after the call was abandoned still crosses the
// network but reaches nobody.
func TestCallReplyAfterAbandonDiscarded(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := enabledConfig()
	cfg.RPC = map[string]RPCBudget{"app": {TimeoutSeconds: 1, Attempts: 2, BackoffSeconds: 0.5}}
	f := New(eng, cfg, 1)
	var replies []func(error)
	var got []error
	f.Call("a", "b", "app", func(reply func(error)) { replies = append(replies, reply) },
		func(err error) { got = append(got, err) })
	eng.Run()
	if len(got) != 1 || !errors.Is(got[0], ErrRPCTimeout) || len(replies) != 2 {
		t.Fatalf("done got %v after %d attempts, want one ErrRPCTimeout after 2", got, len(replies))
	}
	before := f.Stats()
	for _, reply := range replies {
		reply(nil)
	}
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("done fired again after abandonment: %v", got)
	}
	if st := f.Stats(); st.Messages != before.Messages+2 || st.Delivered != before.Delivered+2 {
		t.Fatalf("late replies not carried: %+v -> %+v", before, st)
	}
}

// warmFabric returns an enabled, instrumented fabric whose engine freelist
// and intern tables are already populated, the state every message after
// a run's first few finds.
func warmFabric(cfg Config) (*sim.Engine, *Fabric) {
	eng := sim.NewEngine(1)
	f := New(eng, cfg, 1)
	f.Instrument(nil, obs.NewRegistry(eng.Now))
	for i := 0; i < 4096; i++ {
		f.Call("a", "b", "app", replyNil, ignoreErr)
	}
	eng.Run()
	return eng, f
}

// Package-level callbacks, so the alloc tests measure the fabric and not
// closure capture at the call site.
func nop()                       {}
func replyNil(reply func(error)) { reply(nil) }
func ignoreErr(error)            {}

// replyNilCallee is replyNil as a Callee.
type replyNilCallee struct{}

func (replyNilCallee) Attempt(reply Reply) { reply.Reply(nil) }

// TestCallAllocs pins the call record: an uncontended Call allocates the
// record, which holds its first attempt, and the reply function its
// attempt function is handed; the attempt's four events, and the Reply a
// Callee is handed, are the attempt itself. Start over a record the caller
// owns allocates nothing (1 while the callee was handed a bound method).
// Before handlers a Call cost 6 (the record, an attempt and four bound
// methods), and the closure chain before that 11.
func TestCallAllocs(t *testing.T) {
	eng, f := warmFabric(enabledConfig())
	call := testing.AllocsPerRun(1000, func() {
		f.Call("a", "b", "app", replyNil, ignoreErr)
		eng.Run()
	})
	recs := make([]RPC, 1001) // AllocsPerRun runs the function once more
	i := 0
	start := testing.AllocsPerRun(1000, func() {
		f.Start(&recs[i], "a", "b", "app", replyNilCallee{}, ReplyFunc(ignoreErr))
		i++
		eng.Run()
	})
	if call > 2 || start > 0 {
		t.Fatalf("one uncontended RPC allocates %.2f objects through Call and %.2f through Start, want <= 2 and 0", call, start)
	}
	if st := f.Stats(); st.RPCs != 4096+2*1001 || st.Retransmits != 0 {
		t.Fatalf("stats %+v: every RPC must be counted and none retried", st)
	}
}

// TestSendAllocs: a one-way message allocates nothing, with or without
// per-link overrides configured.
func TestSendAllocs(t *testing.T) {
	cfg := enabledConfig()
	for _, links := range []map[string]Link{nil, {"a->b": {LatencyMS: 5}}} {
		cfg.Links = links
		eng, f := warmFabric(cfg)
		avg := testing.AllocsPerRun(1000, func() {
			f.Send("a", "b", "app", nop)
			eng.Run()
		})
		if avg != 0 {
			t.Fatalf("links %v: Send allocates %.2f objects/op, want 0", links, avg)
		}
	}
}

func TestLinkOverrideIsDirected(t *testing.T) {
	eng := sim.NewEngine(1)
	f := New(eng, Config{Enabled: true, Links: map[string]Link{"a->b": {LatencyMS: 5}}}, 1)
	arrival := func(from, to string) float64 {
		start, at := eng.Now(), -1.0
		f.Send(from, to, "x", func() { at = eng.Now() })
		eng.Run()
		return at - start
	}
	if got := arrival("a", "b"); math.Abs(got-0.005) > 1e-9 {
		t.Fatalf("a->b took %g s, want the 5 ms override", got)
	}
	for _, pair := range [][2]string{{"b", "a"}, {"a", "c"}, {"c", "b"}, {"", "b"}} {
		if got := arrival(pair[0], pair[1]); math.Abs(got-0.0003) > 1e-9 {
			t.Fatalf("%s->%s took %g s, want the 0.3 ms LAN default", pair[0], pair[1], got)
		}
	}
}

// A per-link override without latency_ms takes the default link's
// latency, resolved: the 0.3 ms LAN figure when the default sets none,
// the default's own when it does. It used to make the link instantaneous.
func TestLinkOverrideWithoutLatencyTakesDefault(t *testing.T) {
	for _, c := range []struct {
		def  Link
		want float64
	}{{Link{}, 0.0003}, {Link{LatencyMS: 5}, 0.005}} {
		eng := sim.NewEngine(1)
		f := New(eng, Config{Enabled: true, Default: c.def, Links: map[string]Link{"a->b": {Loss: 0.01}}}, 1)
		for _, pair := range [][2]string{{"a", "b"}, {"b", "a"}} {
			start, at := eng.Now(), -1.0
			if !f.Send(pair[0], pair[1], "x", func() { at = eng.Now() }) {
				t.Fatalf("default %+v: %s->%s lost", c.def, pair[0], pair[1])
			}
			eng.Run()
			if got := at - start; math.Abs(got-c.want) > 1e-9 {
				t.Fatalf("default %+v: %s->%s took %g s, want %g", c.def, pair[0], pair[1], got, c.want)
			}
		}
	}
}

// --- Detector ---

func detectorRig(t *testing.T, seed int64, cfg Config) (*sim.Engine, *Fabric, *Detector, *cluster.Node) {
	t.Helper()
	eng := sim.NewEngine(seed)
	f := New(eng, cfg, seed)
	d := NewDetector(eng, f, cfg.Heartbeat)
	node := cluster.NewNode(eng, "node1", cluster.DefaultConfig())
	return eng, f, d, node
}

func TestDetectorDetectionLatencyTable(t *testing.T) {
	// Detection latency after a crash is governed by threshold*mean*ln10
	// (mean settles at the heartbeat period under regular arrivals).
	cases := []struct {
		name      string
		period    float64
		threshold float64
	}{
		{"fast", 0.5, 2},
		{"default", 1, 3},
		{"patient", 2, 3},
		{"paranoid", 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := enabledConfig()
			cfg.Heartbeat = HeartbeatConfig{PeriodSeconds: tc.period, PhiThreshold: tc.threshold}
			eng, _, d, node := detectorRig(t, 42, cfg)
			d.Monitor("tomcat1", node)
			warmup := 30 * tc.period
			failAt := warmup
			eng.At(failAt, "fail", node.Fail)
			var detectedAt float64 = -1
			eng.Every(tc.period/4, "poll", func(now float64) {
				if detectedAt < 0 && d.Suspected("tomcat1") {
					detectedAt = now
				}
			})
			eng.RunUntil(warmup + 100*tc.period)
			if detectedAt < 0 {
				t.Fatal("crash never detected")
			}
			latency := detectedAt - failAt
			expect := tc.threshold * tc.period * math.Ln10
			// The last heartbeat precedes the crash by up to one period and
			// polling quantizes by a quarter period.
			if latency < expect-tc.period || latency > expect+tc.period {
				t.Fatalf("detection latency %g, want about %g (±%g)", latency, expect, tc.period)
			}
			st := d.Stats()
			if st.TruePositives != 1 || st.FalsePositives != 0 {
				t.Fatalf("stats %+v, want exactly one true positive", st)
			}
			if st.MeanDetectionLatency() <= 0 {
				t.Fatal("mean detection latency not recorded")
			}
		})
	}
}

func TestDetectorFalsePositiveUnderPartitionThenHeal(t *testing.T) {
	cfg := enabledConfig()
	cfg.Heartbeat = HeartbeatConfig{PeriodSeconds: 1, PhiThreshold: 3}
	eng, f, d, node := detectorRig(t, 42, cfg)
	d.Monitor("tomcat1", node)
	// Cut the replica off from the management endpoint only: the node
	// stays up but its heartbeats vanish.
	var id int
	eng.At(30, "cut", func() { id = f.Partition([]string{"node1"}, []string{ManagementEndpoint}) })
	eng.At(60, "heal", func() { f.Heal(id) })
	eng.RunUntil(90)
	st := d.Stats()
	if st.FalsePositives != 1 {
		t.Fatalf("false positives = %d, want 1 (stats %+v)", st.FalsePositives, st)
	}
	if st.TruePositives != 0 {
		t.Fatalf("true positives = %d for a node that never failed", st.TruePositives)
	}
	if st.Heals != 1 {
		t.Fatalf("heals = %d, want the suspicion to decay after the partition heals", st.Heals)
	}
	if d.Suspected("tomcat1") {
		t.Fatal("replica still suspect after heartbeats resumed")
	}
	if phi := d.Phi("tomcat1"); phi >= cfg.Heartbeat.PhiThreshold {
		t.Fatalf("phi %g still above threshold", phi)
	}
}

func TestDetectorForgetStopsHeartbeats(t *testing.T) {
	cfg := enabledConfig()
	eng, f, d, node := detectorRig(t, 1, cfg)
	d.Monitor("tomcat1", node)
	eng.RunUntil(10)
	before := f.Stats().Messages
	if before == 0 {
		t.Fatal("no heartbeats sent while monitored")
	}
	d.Forget("tomcat1")
	eng.RunUntil(30)
	// One in-flight tick may still fire; afterwards the emitter is gone.
	if after := f.Stats().Messages; after > before+1 {
		t.Fatalf("heartbeats kept flowing after Forget: %d -> %d", before, after)
	}
	if d.Suspected("tomcat1") {
		t.Fatal("forgotten replica reported suspect")
	}
}
