package main

import (
	"errors"
	"io"
	"math/rand"
	"time"

	"jade"
	"jade/internal/cluster"
	"jade/internal/fluid"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/obs/attrib"
	"jade/internal/refresh"
	"jade/internal/rubis"
	"jade/internal/selector"
	"jade/internal/sim"
	"jade/internal/sqlengine"
	"jade/internal/trace"
)

// Layer drivers: each calls one layer's public functions directly, in
// the pattern the scenario uses them, and times the calls as benchmark
// spans. They run after the traced iterations, each for well under a
// second, and only on workloads where the layer does work; elsewhere
// the metric reads 0.

// driverInput is what the drivers take from the workload.
type driverInput struct {
	seed int64
	cfg  jade.ScenarioConfig
	last *jade.ScenarioResult // the final traced run
}

// sink keeps driver results live so the calls are not optimised away.
var sink any

func nop() {}

// perOp runs fn (which performs n operations) in a span and returns
// nanoseconds per operation.
func perOp(l *spanLog, name string, n int, fn func()) float64 {
	return float64(l.timed(name, fn).Nanoseconds()) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func runDrivers(l *spanLog, in driverInput, m map[string]float64) error {
	end := l.begin("drivers")
	defer end()

	if err := driveSQL(l, in, m); err != nil {
		return err
	}
	driveSim(l, m)
	driveCluster(l, m)
	driveSelector(l, m)
	driveTrace(l, m)
	driveObsObserve(l, m)
	driveRefresh(l, m)
	if err := driveDeploy(l, in, m); err != nil {
		return err
	}
	if in.cfg.Net.Enabled {
		driveNetsim(l, in, m)
	}
	if in.cfg.WorkloadMode == jade.WorkloadFluid {
		driveFluid(l, m)
	}
	if in.cfg.MetricsDir != "" {
		driveObsSnapshot(l, in, m)
	}
	if in.cfg.TraceRequests > 0 {
		tr := in.last.Trace()
		var werr error
		m["trace.driver_export_ms"] = ms(l.timed("driver.trace.export", func() { werr = tr.WriteJSONL(io.Discard) }))
		if werr != nil {
			return werr
		}
		m["obs_attrib.driver_analyze_ms"] = ms(l.timed("driver.obs_attrib.analyze", func() {
			sink = attrib.BuildReport(attrib.Analyze(tr.SpanTree()), nil)
		}))
	}
	return nil
}

// driveSQL replays the statements of 20 000 interactions of the
// workload's mix, in order, on a fresh initial database, timing request
// generation, parsing and execution of each statement, then the
// fingerprint and snapshot of the end state.
func driveSQL(l *spanLog, in driverInput, m map[string]float64) error {
	const interactions = 20000
	mix, ds := in.cfg.Mix, jade.DefaultDataset()
	if mix == nil {
		mix = jade.BiddingMix()
	}
	if in.cfg.Dataset != nil {
		ds = *in.cfg.Dataset
	}
	db, err := ds.InitialDatabase(in.seed)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(in.seed))
	g := &rubis.GenContext{DS: ds, RNG: rng, Counters: rubis.NewCounters(ds)}
	var sqls []string
	m["rubis.driver_ns_per_request_gen"] = perOp(l, "driver.rubis.request_gen", interactions, func() {
		for i := 0; i < interactions; i++ {
			for _, q := range mix.Pick(rng).Request(g).Queries {
				sqls = append(sqls, q.SQL)
			}
		}
	})
	if len(sqls) == 0 {
		return errors.New("sqlengine driver: the mix issued no statement")
	}

	var parse, sel, wr []float64
	var xerr error
	l.timed("driver.sqlengine.statements", func() {
		for _, q := range sqls {
			t0 := time.Now()
			stmt, err := sqlengine.Parse(q)
			t1 := time.Now()
			if err != nil {
				xerr = err
				return
			}
			_, err = db.ExecStmt(stmt)
			t2 := time.Now()
			if err != nil {
				xerr = err
				return
			}
			parse = append(parse, float64(t1.Sub(t0).Nanoseconds()))
			if us := float64(t2.Sub(t1).Nanoseconds()) / 1e3; sqlengine.IsWrite(q) {
				wr = append(wr, us)
			} else {
				sel = append(sel, us)
			}
		}
	})
	if xerr != nil {
		return xerr
	}
	m["sqlengine.driver_statements"] = float64(len(sqls))
	m["sqlengine.driver_parse_ns_p50"] = median(parse)
	m["sqlengine.driver_select_us_p50"] = median(sel)
	m["sqlengine.driver_select_us_p99"] = percentile(sel, 0.99)
	m["sqlengine.driver_write_us_p50"] = median(wr)
	m["sqlengine.driver_write_us_p99"] = percentile(wr, 0.99)
	m["sqlengine.driver_fingerprint_ms"] = ms(l.timed("driver.sqlengine.fingerprint", func() { sink = db.Fingerprint() }))
	m["sqlengine.driver_snapshot_ms"] = ms(l.timed("driver.sqlengine.snapshot", func() { sink = db.Snapshot() }))
	return nil
}

// driveSim times the engine's schedule-and-fire loop, and the
// cancel-and-reschedule pattern cluster nodes use, at a queue depth of
// 512 pending events.
func driveSim(l *spanLog, m map[string]float64) {
	const rounds, perRound = 200, 1000
	m["sim.driver_ns_per_event"] = perOp(l, "driver.sim.events", rounds*perRound, func() {
		for r := 0; r < rounds; r++ {
			e := sim.NewEngine(1)
			for j := 0; j < perRound; j++ {
				e.After(e.Uniform(0, 100), "b", nop)
			}
			e.Run()
		}
	})

	const depth, cancels = 512, 200000
	e := sim.NewEngine(1)
	hs := make([]sim.Handle, depth)
	for i := range hs {
		hs[i] = e.After(e.Uniform(1, 2), "b", nop)
	}
	m["sim.driver_ns_per_cancel"] = perOp(l, "driver.sim.cancel", cancels, func() {
		for i := 0; i < cancels; i++ {
			k := i % depth
			e.Cancel(hs[k])
			hs[k] = e.After(e.Uniform(1, 2), "b", nop)
		}
	})
}

// driveCluster keeps 32 jobs sharing one node's CPU, resubmitting each
// as it completes.
func driveCluster(l *spanLog, m map[string]float64) {
	const concurrent, jobs = 32, 100000
	e := sim.NewEngine(1)
	node := cluster.NewNode(e, "n", cluster.DefaultConfig())
	left := jobs
	var submit func()
	submit = func() {
		if left > 0 {
			left--
			node.Submit(e.Uniform(0.001, 0.01), submit, nil)
		}
	}
	m["cluster.driver_ns_per_job"] = perOp(l, "driver.cluster.jobs", jobs, func() {
		for i := 0; i < concurrent; i++ {
			submit()
		}
		e.Run()
	})
}

// driveSelector picks among three backends with C-JDBC's read policy,
// with the acquire/release bookkeeping a forwarded request does.
func driveSelector(l *spanLog, m map[string]float64) {
	const picks = 200000
	pool := selector.New(selector.DefaultOptions(selector.LeastPending))
	for _, name := range []string{"mysql1", "mysql2", "mysql3"} {
		_ = pool.Add(name, 1) // distinct names: Add cannot fail
	}
	m["selector.driver_ns_per_pick"] = perOp(l, "driver.selector.picks", picks, func() {
		for i := 0; i < picks; i++ {
			name, _ := pool.Pick("")
			pool.Acquire(name)
			pool.Release(name, 0.01, false)
		}
	})
}

// driveNetsim sends one-way messages and zero-work RPCs over the
// workload's fabric configuration.
func driveNetsim(l *spanLog, in driverInput, m map[string]float64) {
	const messages, rpcs = 100000, 50000
	e := sim.NewEngine(in.seed)
	fab := netsim.New(e, in.cfg.Net, in.seed)
	fab.Instrument(nil, obs.NewRegistry(e.Now))
	m["netsim.driver_ns_per_message"] = perOp(l, "driver.netsim.messages", messages, func() {
		for i := 0; i < messages; i++ {
			fab.Send("tomcat1", "cjdbc1", "sql", nop)
			if i%64 == 63 {
				e.Run()
			}
		}
		e.Run()
	})
	reply := func(reply func(error)) { reply(nil) }
	done := func(error) {}
	m["netsim.driver_ns_per_rpc"] = perOp(l, "driver.netsim.rpcs", rpcs, func() {
		for i := 0; i < rpcs; i++ {
			fab.Call("tomcat1", "cjdbc1", "sql", reply, done)
			if i%64 == 63 {
				e.Run()
			}
		}
		e.Run()
	})
}

// driveTrace opens and closes spans on a recording tracer (a fresh one
// before its span store fills) and on a disabled one, the two states
// the instrumentation calls see.
func driveTrace(l *spanLog, m map[string]float64) {
	const rounds, perRound = 4, trace.DefaultSpanCapacity / 2
	clock := func() float64 { return 0 }
	spans := func(tr *trace.Tracer) {
		for i := 0; i < perRound; i++ {
			id := tr.Begin(0, "request", "ViewItem", trace.Fi("client", i))
			tr.End(id)
		}
	}
	m["trace.driver_ns_per_span"] = perOp(l, "driver.trace.spans", rounds*perRound, func() {
		for r := 0; r < rounds; r++ {
			spans(trace.New(clock, trace.DefaultEventCapacity, trace.DefaultSpanCapacity))
		}
	})
	off := trace.New(clock, trace.DefaultEventCapacity, trace.DefaultSpanCapacity)
	off.SetEnabled(false)
	m["trace.driver_ns_per_span_off"] = perOp(l, "driver.trace.spans_off", rounds*perRound, func() {
		for r := 0; r < rounds; r++ {
			spans(off)
		}
	})
}

// driveObsObserve records latencies into a registry histogram, as every
// tier does per request whether or not anyone scrapes.
func driveObsObserve(l *spanLog, m map[string]float64) {
	const observations = 500000
	reg := obs.NewRegistry(func() float64 { return 0 })
	h := reg.Histogram("bench_latency_seconds", "driver histogram")
	rng := rand.New(rand.NewSource(1))
	m["obs.driver_observe_ns"] = perOp(l, "driver.obs.observe", observations, func() {
		for i := 0; i < observations; i++ {
			h.Observe(rng.Float64())
		}
	})
}

// driveObsSnapshot snapshots and renders the finished run's registry as
// a scrape tick does. A histogram re-sorts its retained samples on the
// first snapshot after an observation, so each pass first records one
// tick's share of new samples in every histogram, drawn from the
// histogram's own distribution.
func driveObsSnapshot(l *spanLog, in driverInput, m map[string]float64) {
	const passes = 5
	reg := in.last.Platform.Metrics()
	tickShare := in.cfg.MetricsInterval / reg.Now()
	var hists []*obs.Histogram
	snap := reg.Snapshot()
	for _, fam := range snap.Families {
		if fam.Type != obs.HistogramType {
			continue
		}
		for _, s := range fam.Series {
			hists = append(hists, reg.Histogram(fam.Name, fam.Help, s.Labels...))
		}
	}
	rng := rand.New(rand.NewSource(in.seed))
	var snapMs, expoMs []float64
	for i := 0; i < passes; i++ {
		for _, h := range hists {
			fresh := make([]float64, 1+int(float64(h.Count())*tickShare))
			for j := range fresh {
				fresh[j] = h.Quantile(rng.Float64())
			}
			for _, v := range fresh {
				h.Observe(v)
			}
		}
		snapMs = append(snapMs, ms(l.timed("driver.obs.snapshot", func() { snap = reg.Snapshot() })))
		expoMs = append(expoMs, ms(l.timed("driver.obs.expo", func() {
			sink = obs.PrometheusText(snap)
			sink = obs.MetricsJSON(snap)
		})))
	}
	m["obs.driver_snapshot_ms"] = median(snapMs)
	m["obs.driver_expo_ms"] = median(expoMs)
}

// driveRefresh reads a live sizing sub-config, as a manager does on
// each loop tick.
func driveRefresh(l *spanLog, m map[string]float64) {
	const gets = 2000000
	v := refresh.NewView("bench:sizing.app", jade.AppSizingDefaults())
	var got jade.SizingConfig
	m["refresh.driver_get_ns"] = perOp(l, "driver.refresh.get", gets, func() {
		for i := 0; i < gets; i++ {
			got = v.Get()
		}
	})
	sink = got
}

// driveFluid ticks a four-station network shaped like the scenario's
// (plb, app, cjdbc, db) at a million-client population.
func driveFluid(l *spanLog, m map[string]float64) {
	const ticks = 200000
	e := sim.NewEngine(1)
	ncfg := cluster.DefaultConfig()
	ncfg.CPUCapacity = 1024
	var stations []*fluid.Station
	for _, s := range []struct {
		name   string
		demand float64
	}{{"plb", 0.0002}, {"app", 0.004}, {"cjdbc", 0.0003}, {"db", 0.002}} {
		s := s
		nodes := []*cluster.Node{cluster.NewNode(e, s.name, ncfg)}
		stations = append(stations, &fluid.Station{
			Name:    s.name,
			Demand:  func(int) float64 { return s.demand },
			Service: func(int) float64 { return s.demand },
			Members: func() []*cluster.Node { return nodes },
		})
	}
	net := fluid.NewNetwork(fluid.Config{
		ThinkTime:  7,
		Population: func(float64) float64 { return jade.MillionClients },
	}, stations...)
	m["fluid.driver_ns_per_tick"] = perOp(l, "driver.fluid.ticks", ticks, func() {
		for i := 0; i < ticks; i++ {
			net.Tick(float64(i), 1)
		}
	})
}

// driveDeploy times the deployment of the workload's architecture on a
// fresh platform: dump registration, ADL parse, install and start of
// every tier.
func driveDeploy(l *spanLog, in driverInput, m map[string]float64) error {
	const passes = 5
	adlText := in.cfg.ADL
	if adlText == "" {
		adlText = jade.ThreeTierADL
	}
	dump, err := jade.DefaultDataset().InitialDatabase(in.seed)
	if err != nil {
		return err
	}
	var samples []float64
	for i := 0; i < passes; i++ {
		derr := errors.New("deployment did not complete")
		d := l.timed("driver.core.deploy", func() {
			opts := jade.DefaultPlatformOptions()
			opts.Seed = in.seed
			opts.TraceDisabled = in.cfg.TraceOff
			p := jade.NewPlatform(opts)
			p.RegisterDump("rubis", dump)
			def, err := jade.ParseADL(adlText)
			if err != nil {
				derr = err
				return
			}
			p.Deploy(def, func(_ *jade.Deployment, err error) { derr = err })
			p.Eng.Run()
		})
		if derr != nil {
			return derr
		}
		samples = append(samples, ms(d))
	}
	m["core.deploy_ms"] = median(samples)
	return nil
}
