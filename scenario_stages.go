package jade

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"jade/internal/cjdbc"
	"jade/internal/cluster"
	"jade/internal/core"
	"jade/internal/fluid"
	"jade/internal/fractal"
	"jade/internal/invariant"
	"jade/internal/metrics"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/obs/alert"
	"jade/internal/obs/attrib"
	"jade/internal/refresh"
	"jade/internal/rubis"
	"jade/internal/selector"
	"jade/internal/sim"
)

// The stages of the run lifecycle, in runStages order. Each takes the
// shared run state, wires one plane, registers that plane's tickers and
// appends its finisher.

// management arms the sizing loops (and, with Recovery, the repair loop)
// on a managed run; an unmanaged run gets the same sensors with zero
// probe cost and no reactor.
func (r *run) management() error {
	cfg, p, res := &r.cfg, r.p, r.res
	if !cfg.Managed {
		appSensor := core.NewCPUSensor(r.appTier.AppendNodes, cfg.AppSizing.Window, 0)
		dbSensor := core.NewCPUSensor(r.dbTier.AppendNodes, cfg.DBSizing.Window, 0)
		res.App.CPURaw, res.App.CPUSmoothed = appSensor.Raw, appSensor.Smoothed
		res.DB.CPURaw, res.DB.CPUSmoothed = dbSensor.Raw, dbSensor.Smoothed
		res.App.Replicas = metrics.NewSeries("application-servers-replicas")
		res.App.Replicas.Add(p.Eng.Now(), float64(r.appTier.ReplicaCount()))
		res.DB.Replicas = metrics.NewSeries("database-backends-replicas")
		res.DB.Replicas.Add(p.Eng.Now(), float64(r.dbTier.ReplicaCount()))
		p.Eng.Every(1, "observe", func(now float64) {
			appSensor.Sample(now)
			dbSensor.Sample(now)
		})
		return nil
	}

	cfg.AppSizing.MaxReplicas = cfg.MaxAppReplicas
	cfg.DBSizing.MaxReplicas = cfg.MaxDBReplicas
	shared := &Inhibitor{}
	appMgr, err := NewSizingManager(p, "self-optimization-app", r.appTier, cfg.AppSizing, shared)
	if err != nil {
		return err
	}
	dbMgr, err := NewSizingManager(p, "self-optimization-db", r.dbTier, cfg.DBSizing, shared)
	if err != nil {
		return err
	}
	if cfg.Arbitrate {
		r.arb = core.NewArbiter(cfg.AppSizing.InhibitSeconds)
		r.arb.Trace = p.Trace()
		appMgr.Reactor.Arbiter = r.arb
		dbMgr.Reactor.Arbiter = r.arb
	}
	if err := appMgr.Loop.Start(); err != nil {
		return err
	}
	if err := dbMgr.Loop.Start(); err != nil {
		return err
	}
	res.AppManager, res.DBManager = appMgr, dbMgr
	res.App.CPURaw, res.App.CPUSmoothed = appMgr.Sensor.Raw, appMgr.Sensor.Smoothed
	res.DB.CPURaw, res.DB.CPUSmoothed = dbMgr.Sensor.Raw, dbMgr.Sensor.Smoothed
	res.App.Replicas = appMgr.Replicas
	res.DB.Replicas = dbMgr.Replicas
	r.finish = append(r.finish, func() {
		res.Reconfigurations = int(appMgr.Reactor.Grows + appMgr.Reactor.Shrinks +
			dbMgr.Reactor.Grows + dbMgr.Reactor.Shrinks)
	})
	if !cfg.Recovery {
		return nil
	}

	rec, err := NewRecoveryManager(p, "self-recovery", 1, r.appTier, r.dbTier)
	if err != nil {
		return err
	}
	if r.arb != nil {
		rec.Arbiter = r.arb
	}
	if r.fabric.Enabled() {
		// With a real network the perfect oracle gives way to the
		// heartbeat suspicion detector: detection is now late and
		// sometimes wrong, as on the paper's LAN.
		rec.Suspector = r.newDetector()
	}
	if err := rec.Loop.Start(); err != nil {
		return err
	}
	r.finish = append(r.finish, func() {
		res.Repairs = rec.Repairs
	})
	return nil
}

// newDetector arms the φ-accrual heartbeat detector over the fabric.
func (r *run) newDetector() *netsim.Detector {
	r.detector = netsim.NewDetector(r.p.Eng, r.fabric, r.cfg.Net.Heartbeat)
	r.detector.Instrument(r.p.Trace(), r.p.Metrics())
	return r.detector
}

// monitoring arms the detector as a pure signal source when asked to
// (cfg.Monitor without Recovery) and, whenever a detector exists, feeds
// its verdicts into the balancer pools.
func (r *run) monitoring() error {
	if r.detector == nil && r.cfg.Monitor && r.fabric.Enabled() {
		// The detector watches the initial replicas (suspicion routing,
		// incident timelines, the alert-latency comparison) without any
		// repair acting on it.
		det := r.newDetector()
		for _, name := range append(append([]string{}, r.cfg.AppReplicas...), r.cfg.DBReplicas...) {
			if node, err := r.dep.NodeOf(name); err == nil {
				det.Monitor(name, node)
			}
		}
	}
	r.finish = append(r.finish, func() {
		r.res.Net = r.fabric.Stats()
		if r.detector != nil {
			stats := r.detector.Stats()
			r.res.Detector = &stats
		}
	})
	if r.detector == nil {
		return nil
	}
	// Once per second suspected replicas leave rotation (probe requests
	// bring them back in) and cleared suspicions restore them.
	r.p.Eng.Every(1, "route-suspicions", func(float64) {
		if pl := r.appPool(); pl != nil {
			pl.SyncSuspicions(r.detector)
		}
		if pl := r.dbPool(); pl != nil {
			pl.SyncSuspicions(r.detector)
		}
	})
	return nil
}

// invariants registers the checkers and starts the harness ticker; every
// reconfiguration boundary triggers an extra check.
func (r *run) invariants() error {
	if !r.cfg.Invariants {
		return nil
	}
	p, dep := r.p, r.dep
	harness := invariant.NewHarness(p.Eng)
	harness.Tail = p.Trace().Tail
	if r.cfg.InvariantPeriod > 0 {
		harness.Period = r.cfg.InvariantPeriod
	}
	componentState := func(name string) (fractal.State, error) {
		c, err := dep.Component(name)
		if err != nil {
			return fractal.Stopped, err
		}
		return c.State(), nil
	}
	appAgree := invariant.NewBalancerAgreement("plb1/"+r.appTier.TierName(), func() []string {
		b := r.plb.Balancer()
		if b == nil || !b.Running() {
			return nil
		}
		return b.Members()
	}, r.appTier)
	appAgree.Pendings = func() map[string]int {
		b := r.plb.Balancer()
		if b == nil {
			return nil
		}
		return b.Pendings()
	}
	appAgree.ComponentState = componentState
	appAgree.NodeOf = dep.NodeOf
	dbAgree := invariant.NewBalancerAgreement("cjdbc1/"+r.dbTier.TierName(), func() []string {
		ctl := r.cjdbc.Controller()
		if ctl == nil || !ctl.Running() {
			return nil
		}
		names := []string{}
		for _, b := range ctl.Backends() {
			if b.State == cjdbc.Active {
				names = append(names, b.Name)
			}
		}
		return names
	}, r.dbTier)
	dbAgree.ComponentState = componentState
	dbAgree.NodeOf = dep.NodeOf
	if !r.cfg.Managed || !r.cfg.Recovery {
		// The grace is the time self-recovery has to repair; with no
		// repair loop armed nothing ever unbinds a failed member.
		appAgree.FailedGrace = math.Inf(1)
		dbAgree.FailedGrace = math.Inf(1)
	}
	doubleRepair := invariant.NewDoubleRepair()
	p.OnRepairDiscard(doubleRepair.Record)
	harness.Register(
		invariant.NewCJDBCConsistency("cjdbc1", r.cjdbc.Controller),
		invariant.NewNodeConservation(p.Pool),
		appAgree,
		dbAgree,
		invariant.NewLifecycle(dep.Root, p.ManagementRoot()),
		doubleRepair,
	)
	if arb := r.arb; arb != nil {
		harness.Register(invariant.NewArbiterLegality(arb.QuietSeconds, func() []invariant.ArbiterDecisionView {
			ds := arb.Decisions()
			out := make([]invariant.ArbiterDecisionView, len(ds))
			for i, d := range ds {
				out[i] = invariant.ArbiterDecisionView{
					T:        d.T,
					Priority: d.Priority,
					Granted:  d.Granted,
					Released: d.Reason == "released",
				}
			}
			return out
		}))
	}
	p.OnReconfiguration(func(now float64, event string) { harness.CheckNow(event) })
	harness.Start()
	r.harness = harness
	r.finish = append(r.finish, func() {
		harness.Stop()
		r.res.InvariantViolation = harness.Violation()
		r.res.InvariantChecks = harness.Checks()
		r.res.RepairDiscards = doubleRepair.Discards()
		r.res.RepairsConfirmedLegal = doubleRepair.Confirmed()
	})
	return nil
}

// accounting is Table 1's bookkeeping: per-second CPU and memory across
// the nodes hosting components (static and dynamically added alike), and
// the allocated-node integral.
func (r *run) accounting() error {
	p, dep := r.p, r.dep
	var cpuSum, memSum, nodeSeconds float64
	var sampleCount int
	readers := make(map[*Node]*cluster.UtilizationReader)
	peak := p.Pool.AllocatedCount()
	p.Eng.Every(1, "node-accounting", func(now float64) {
		var cpu, mem float64
		var n int
		for _, name := range dep.ComponentNames() {
			node, err := dep.NodeOf(name)
			if err != nil || node.Failed() {
				continue
			}
			rd, ok := readers[node]
			if !ok {
				rd = cluster.NewUtilizationReader(node)
				readers[node] = rd
			}
			cpu += rd.Read()
			mem += node.MemoryFraction()
			n++
		}
		if n > 0 {
			cpuSum += cpu / float64(n)
			memSum += mem / float64(n)
			sampleCount++
		}
		alloc := p.Pool.AllocatedCount()
		nodeSeconds += float64(alloc)
		if alloc > peak {
			peak = alloc
		}
	})
	r.finish = append(r.finish, func() {
		if sampleCount > 0 {
			r.res.NodeCPUPercent = 100 * cpuSum / float64(sampleCount)
			r.res.NodeMemPercent = 100 * memSum / float64(sampleCount)
		}
		r.res.PeakNodesUsed = peak
		r.res.NodeSeconds = nodeSeconds
	})
	return nil
}

// workload starts the client emulator against the PLB front end — in
// fluid mode over a sampled fraction of the population, the rest carried
// by the fluid network — and marks the workload start.
func (r *run) workload() error {
	cfg, p, res := &r.cfg, r.p, r.res
	front := r.plb.Balancer()
	driveProfile := cfg.Profile
	if r.fluidOn {
		sampled := rubis.ScaledProfile{Inner: cfg.Profile, Rate: cfg.FluidSampleRate, Min: cfg.FluidMinSampled}
		driveProfile = sampled
		r.startFluid(sampled)
	}

	// With the fabric enabled the clients sit behind the network too, as
	// the pseudo-endpoint "client".
	em := NewEmulator(p.Eng, p.Net.RemoteHTTP(netsim.ClientEndpoint, "front", front), cfg.Mix, driveProfile, *cfg.Dataset)
	em.ThinkTime = cfg.ThinkTime
	if r.fluidOn {
		// The workload series records the full (fluid + sampled)
		// population, so plots and SLO context keep paper-scale numbers.
		em.ReportProfile = cfg.Profile
	}
	if cfg.TraceRequests > 0 {
		em.Trace = p.Trace()
		em.TraceEvery = cfg.TraceRequests
	}
	if cfg.Sessions {
		em.Chain = rubis.DefaultTransitions()
	}
	if err := em.Start(); err != nil {
		return err
	}
	res.WorkloadStart = p.Eng.Now()
	em.Obs = obs.NewTierMetrics(p.Metrics(), "client", "emulator")
	res.RequestLatency = em.Obs.Latency
	r.em = em

	r.finish = append(r.finish, func() {
		em.Stop()
		res.WorkloadEnd = res.WorkloadStart + cfg.Profile.Duration()
		res.Stats = em.Stats()
		if r.fnet != nil {
			rep := r.fnet.Report()
			res.Fluid = &rep
		}
		// Latency attribution: walk the traced span forest into
		// per-request component breakdowns, and aggregate (with the fluid
		// stations' wait estimates when the run was fluid) into the
		// budget report.
		if cfg.TraceRequests > 0 && !cfg.TraceOff {
			res.Attribution = attrib.FromTracer(p.Trace())
		}
		if res.Attribution != nil || r.fnet != nil {
			analysis := res.Attribution
			if analysis == nil {
				analysis = &attrib.Analysis{}
			}
			res.LatencyBudget = attrib.BuildReport(analysis, fluidBudgetTiers(r.fnet))
		}
	})
	return nil
}

// startFluid builds the queue-theoretic station chain that carries the
// unsampled population as a rate flow and starts its tick barrier. Each
// tier's utilization lands on the member nodes as background CPU load —
// the same meters the sizing sensors read.
func (r *run) startFluid(sampled rubis.ScaledProfile) {
	cfg, p := &r.cfg, r.p
	demand := cfg.Mix.FluidDemand(*cfg.Dataset, cfg.Seed, fluidCalibrationSamples)
	plbModel := r.plb.Balancer().FluidModel()
	ctlModel := r.cjdbc.Controller().FluidModel()
	single := func(m fluid.ServiceModel) func() []*cluster.Node {
		return func() []*cluster.Node {
			if m.Up == nil || m.Up() {
				return []*cluster.Node{m.Node}
			}
			return nil
		}
	}
	perQuery := demand.QueriesPerRequest * ctlModel.CostPerUnit
	stations := []*fluid.Station{
		{
			Name:    "plb",
			Demand:  func(int) float64 { return plbModel.CostPerUnit },
			Service: func(int) float64 { return plbModel.CostPerUnit },
			Members: single(plbModel),
		},
		{
			Name:            "app",
			Demand:          func(k int) float64 { return demand.App / float64(k) },
			Service:         func(int) float64 { return demand.App },
			Members:         r.appTier.Nodes,
			ThrashThreshold: cfg.ThrashThreshold,
			ThrashFactor:    cfg.ThrashFactor,
		},
		{
			Name:    "cjdbc",
			Demand:  func(int) float64 { return perQuery },
			Service: func(int) float64 { return perQuery },
			Members: single(ctlModel),
		},
		{
			// Reads load-balance across the k replicas; RAIDb-1
			// broadcasts every write to all of them.
			Name:            "db",
			Demand:          func(k int) float64 { return demand.DBRead/float64(k) + demand.DBWrite },
			Service:         func(int) float64 { return demand.DBRead + demand.DBWrite },
			Members:         r.dbTier.Nodes,
			ThrashThreshold: cfg.ThrashThreshold,
			ThrashFactor:    cfg.ThrashFactor,
		},
	}
	start := p.Eng.Now()
	total, dur := cfg.Profile, cfg.Profile.Duration()
	pop := func(now float64) float64 {
		rel := now - start
		if rel < 0 || rel >= dur {
			return 0
		}
		n := total.Active(rel) - sampled.Active(rel)
		if n < 0 {
			return 0
		}
		return float64(n)
	}
	r.fnet = fluid.NewNetwork(fluid.Config{
		ThinkTime:  cfg.ThinkTime,
		Population: pop,
	}, stations...)
	barrier := sim.NewTickBarrier(p.Eng, cfg.FluidTick, "fluid:tick")
	barrier.Register("network", r.fnet.Tick)
	barrier.Start()
}

// sloEval builds the SLO engine over the configured objectives (each
// without a Probe gets the standard one for its Kind/Tier) and starts its
// evaluation ticker.
func (r *run) sloEval() error {
	cfg := &r.cfg
	objs := cfg.SLOs
	for i := range objs {
		if objs[i].Probe == nil {
			objs[i].Probe = scenarioProbe(&objs[i], r.em, r.res)
		}
	}
	r.slo = obs.NewSLOEngine(r.p.Metrics(), cfg.SLOInterval, objs)
	r.p.Eng.Every(cfg.SLOInterval, "slo-eval", r.slo.Evaluate)
	retarget(r.slo, cfg.SLOTargets)
	r.finish = append(r.finish, func() {
		r.res.SLOReport = r.slo.Report()
	})
	return nil
}

// alerting builds the alert engine and starts its evaluation ticker. The
// ticker runs unconditionally and every rule only reads existing
// measurement streams, so enabling alerting never changes the trajectory
// — Tick is a pure observer of the run.
func (r *run) alerting() error {
	aeng := alert.NewEngine(r.cfg.Alerting, r.p.Trace())
	aeng.Instrument(r.p.Metrics())
	r.alerts, r.res.Alerts = aeng, aeng
	if aeng.Enabled() {
		r.addAlertRules(aeng)
	}
	r.p.Eng.Every(aeng.Config().EvalIntervalSeconds, "alert-eval", aeng.Tick)
	return nil
}

// addAlertRules registers burn-rate rules over the SLO evaluation stream,
// streaming anomaly detectors over the client series, pool-skew rules
// over the routing reservoirs, and feeds the incident correlator from
// detector suspicions, control-loop decisions and routing evictions.
func (r *run) addAlertRules(aeng *alert.Engine) {
	p, em := r.p, r.em
	acfg := aeng.Config()
	burn := make(map[string]*alert.BurnRule, len(r.cfg.SLOs))
	for _, o := range r.cfg.SLOs {
		br := alert.NewBurnRule(acfg, o.Name, o.Tier)
		burn[o.Name] = br
		aeng.AddRule(br)
	}
	r.slo.Observer = func(now float64, name, _ string, value float64, met bool) {
		if br := burn[name]; br != nil {
			br.Observe(now, value, met)
		}
	}
	latP99 := SLObjective{Kind: obs.LatencyPercentile, Percentile: 0.99}
	abandon := SLObjective{Kind: obs.AbandonRate}
	aeng.AddRule(alert.NewZScoreRule(acfg, "anomaly:client-latency-p99", "client", "client", true, 0.3,
		sinceLast(scenarioProbe(&latP99, em, r.res))))
	aeng.AddRule(alert.NewRateRule(acfg, "anomaly:client-abandon-rate", "client", "client", true, 0.02,
		sinceLast(scenarioProbe(&abandon, em, r.res))))
	poolStats := func(pool func() *selector.Pool) func() []alert.BackendStat {
		return func() []alert.BackendStat {
			pl := pool()
			if pl == nil {
				return nil
			}
			snap := pl.Snapshot()
			out := make([]alert.BackendStat, 0, len(snap))
			for _, s := range snap {
				out = append(out, alert.BackendStat{
					Name: s.Name, MeanLatency: s.MeanLatency,
					LatencySamples: s.LatencySamples,
					Failures:       s.DecayedFails, InFlight: s.InFlight,
				})
			}
			return out
		}
	}
	aeng.AddRule(alert.NewSkewRule(acfg, "skew:app-pool", "app", 0.1, poolStats(r.appPool)))
	aeng.AddRule(alert.NewSkewRule(acfg, "skew:db-pool", "db", 0.05, poolStats(r.dbPool)))
	// Causal context for the incident timelines.
	p.OnReconfiguration(func(now float64, event string) {
		aeng.Observe(now, "loop.reconfig", "control-loop", "", event, 0)
	})
	if pl := r.appPool(); pl != nil {
		pl.OnEvict(func(name string) {
			aeng.Observe(p.Eng.Now(), "route.evict", "router", name, "app pool evicted "+name, 0)
		})
	}
	if pl := r.dbPool(); pl != nil {
		pl.OnEvict(func(name string) {
			aeng.Observe(p.Eng.Now(), "route.evict", "router", name, "db pool evicted "+name, 0)
		})
	}
	if r.detector != nil {
		r.detector.OnTransition(func(now float64, target string, suspected, falsePositive bool) {
			kind, detail := "detector.suspect", fmt.Sprintf("phi over threshold (false positive: %v)", falsePositive)
			if !suspected {
				kind, detail = "detector.clear", "phi back under threshold"
			}
			aeng.Observe(now, kind, "detector", target, detail, 0)
		})
	}
}

// sinceLast adapts a window probe to the alert plane's point probes: each
// call covers the time since the previous one, and the first only primes.
func sinceLast(probe func(t0, t1 float64) (float64, bool)) alert.Probe {
	prev := -1.0
	return func(now float64) (float64, bool) {
		t0 := prev
		prev = now
		if v, ok := probe(t0, now); ok && t0 >= 0 {
			return v, true
		}
		return 0, false
	}
}

// liveConfig builds the refreshable configuration: typed views over the
// refreshable sub-configs, a hub every change funnels through (operator
// schedule, chaos config events, admin POSTs), and subscriptions wiring
// each view to the live managers. Changes land at exact virtual ticks on
// the simulation goroutine and emit "config" trace spans, so retunes
// replay byte-identically with the same seed and schedule.
func (r *run) liveConfig() error {
	cfg, p := &r.cfg, r.p
	r.hub = refresh.NewHub(p.Trace())
	crt := newConfigRuntime(r.hub, initialLive(cfg))
	r.crt = crt
	if cfg.Managed {
		r.res.AppManager.Watch(crt.appSizing)
		r.res.DBManager.Watch(crt.dbSizing)
	}
	crt.routing.Subscribe(func(now float64, old, cur RoutingConfig) {
		if err := p.SetRouting(r.dep, cur); err != nil {
			p.Logf("config: routing not applied: %v", err)
		}
	})
	crt.rpc.Subscribe(func(now float64, old, cur map[string]RPCBudget) {
		r.fabric.SetRPCBudgets(cur)
	})
	crt.sloTargets.Subscribe(func(now float64, old, cur map[string]float64) {
		retarget(r.slo, cur)
	})
	crt.alerting.Subscribe(func(now float64, old, cur AlertConfig) {
		r.alerts.Retune(cur)
	})

	r.pub = obs.NewPublisher()
	r.pub.SetPostHandler("/config", crt.handleConfigPost)
	// The drain ticker runs unconditionally (like every other plane's
	// ticker) so the event schedule never depends on HTTPAddr; without an
	// admin endpoint no submission can ever be pending, so headless runs
	// drain nothing. Live POSTs are wall-clock-timed — headless replays
	// script the same changes via cfg.Operator instead.
	p.Eng.Every(1, "config-drain", func(now float64) {
		if r.hub.Drain(now) > 0 {
			// Refresh the /config page right away so a live `jadectl
			// config get` sees its own set without waiting for the next
			// metrics snapshot. Only live submissions reach this branch,
			// so headless trajectories are untouched.
			r.pub.Set("/config", crt.renderPage(now))
		}
	})
	r.finish = append(r.finish, func() {
		r.hub.Close() // freeze the configuration: late POSTs get ErrClosed
		r.res.ConfigChanges = crt.changes()
	})
	return nil
}

// prometheusText renders every metrics snapshot of a run. It is
// obs.PrometheusText; a test wraps it to check each page against the
// reference renderer.
var prometheusText = obs.PrometheusText

// publishing starts the admin endpoint (with HTTPAddr) and the snapshot
// ticker, which runs unconditionally so the event schedule is identical
// whether or not anyone watches the run; snapshots are taken only when
// somebody does, and the admin-only pages are rendered only with an admin
// server. With either sink it starts the run's artifact writer, which
// renders the metrics snapshots and writes every artifact off the
// simulation goroutine. Its finisher takes the final snapshot and hands
// the run artifacts to the writer, so it must stay the last one.
func (r *run) publishing() error {
	cfg, p, res, reg := &r.cfg, r.p, r.res, r.p.Metrics()
	if cfg.MetricsDir != "" {
		if err := os.MkdirAll(cfg.MetricsDir, 0o755); err != nil {
			return err
		}
	}
	if cfg.HTTPAddr != "" {
		admin, err := obs.StartAdmin(cfg.HTTPAddr, r.pub)
		if err != nil {
			return err
		}
		res.Admin = admin
		res.AdminAddr = admin.Addr()
		if cfg.AdminReady != nil {
			cfg.AdminReady(admin.Addr())
		}
	}
	if res.Admin != nil || cfg.MetricsDir != "" {
		r.out = startArtifactWriter(cfg.MetricsDir, r.pub)
	}
	// Trace-plane loss counters: silent span/event drops would undermine
	// any attribution built on spans, so they are first-class metrics.
	traceDropped := reg.Counter("jade_trace_dropped_spans_total", "Spans refused because the span store was full.")
	traceEvicted := reg.Counter("jade_trace_evicted_events_total", "Events evicted from the trace ring buffer.")
	var prevDropped, prevEvicted uint64
	refreshFluidGauges := r.fluidGauges()
	snapshot := func(now float64) {
		st := p.Trace().Stat()
		traceDropped.Add(st.SpansDropped - prevDropped)
		traceEvicted.Add(st.EventsEvicted - prevEvicted)
		prevDropped, prevEvicted = st.SpansDropped, st.EventsEvicted
		refreshFluidGauges()
		if r.out == nil {
			return // nobody watching: skip the snapshot, keep the schedule
		}
		r.out.snapshot(reg.Snapshot(), fmt.Sprintf("metrics-t%08d", int64(math.Round(now))))
		if res.Admin != nil {
			// Only the admin server reads these pages.
			r.pub.Set("/components", componentsPage(now, r.dep, p))
			r.pub.Set("/loops", loopsPage(now, res))
			r.pub.Set("/healthz", healthPage(now, p, r.dep, r.harness, r.slo, r.alerts))
			r.pub.Set("/alerts", r.alerts.AlertsPage(now))
			r.pub.Set("/incidents", r.alerts.IncidentsJSON(now))
			r.pub.Set("/fluid", fluidPage(now, r.fnet))
			r.pub.Set("/config", r.crt.renderPage(now))
		}
	}
	snapshot(p.Eng.Now())
	p.Eng.Every(cfg.MetricsInterval, "obs-snapshot", snapshot)

	r.finish = append(r.finish, func() {
		now := p.Eng.Now()
		snapshot(now)
		if cfg.MetricsDir == "" {
			return // no artifacts wanted: render none
		}
		r.out.write("alerts.jsonl", r.alerts.AlertsJSONL())
		r.out.write("incidents.json", r.alerts.IncidentsJSON(now))
		if sloJSON, err := json.MarshalIndent(res.SLOReport, "", "  "); err == nil {
			r.out.write("slo_report.json", append(sloJSON, '\n'))
		}
		if res.LatencyBudget != nil {
			r.out.write("latency_budget.json", res.LatencyBudget.Marshal())
		}
		if r.fnet != nil {
			r.out.write("fluid.json", fluidPage(now, r.fnet))
		}
		r.out.write("config.json", r.crt.renderPage(now))
	})
	return nil
}

// artifactWriter is a run's one writer goroutine. The simulation
// goroutine hands it only immutable registry snapshots and rendered
// bytes, through a small bounded queue (a full queue blocks the sender,
// which bounds memory). The writer renders each snapshot's two
// expositions, publishes them as /metrics and /metrics.json, and writes
// every artifact into dir (with one) in submission order: a final
// snapshot that rounds to the last tick's file name still overwrites it
// last, and the first failed write is still the first one submitted.
type artifactWriter struct {
	dir  string
	pub  *obs.Publisher
	jobs chan artifactJob
	done chan struct{}
	err  error // the first failed write; read only after done closes
}

// artifactJob is one submission: a metrics snapshot written as
// name.prom and name.json, or, without one, the file name and its bytes.
type artifactJob struct {
	snap *obs.Snapshot
	name string
	data []byte
}

// artifactQueue is the writer's queue length. At planes_on's size a
// snapshot takes the writer about 0.1 ms of CPU to render both pages and
// about 1 ms to create and write its two files, most of it opening them
// (CPU profiles of planes_on on a 2-core Xeon), less than the simulation
// needs between two ticks, so the queue only absorbs a slow write; at the
// end of the run RunScenario waits for the writer anyway. A short queue
// holds few snapshots.
const artifactQueue = 4

func startArtifactWriter(dir string, pub *obs.Publisher) *artifactWriter {
	w := &artifactWriter{dir: dir, pub: pub, jobs: make(chan artifactJob, artifactQueue), done: make(chan struct{})}
	go w.loop()
	return w
}

func (w *artifactWriter) loop() {
	defer close(w.done)
	for j := range w.jobs {
		if j.snap == nil {
			w.writeFile(j.name, j.data)
			continue
		}
		prom := prometheusText(j.snap)
		js := obs.MetricsJSON(j.snap)
		w.pub.Set("/metrics", prom)
		w.pub.Set("/metrics.json", js)
		w.writeFile(j.name+".prom", prom)
		w.writeFile(j.name+".json", js)
	}
}

// writeFile writes one artifact into dir (a no-op without one). The
// writer carries on after a failed write; close reports the first.
func (w *artifactWriter) writeFile(name string, data []byte) {
	if w.dir == "" {
		return
	}
	if err := os.WriteFile(filepath.Join(w.dir, name), data, 0o644); err != nil && w.err == nil {
		w.err = err
	}
}

// snapshot queues a metrics snapshot to be rendered, published and
// written as base.prom and base.json.
func (w *artifactWriter) snapshot(snap *obs.Snapshot, base string) {
	w.jobs <- artifactJob{snap: snap, name: base}
}

// write queues one rendered artifact. The caller must not mutate data
// afterwards.
func (w *artifactWriter) write(name string, data []byte) {
	w.jobs <- artifactJob{name: name, data: data}
}

// close waits for every queued job and returns the first failed write.
func (w *artifactWriter) close() error {
	close(w.jobs)
	<-w.done
	return w.err
}

// fluidGauges registers the fluid engine's per-station utilization,
// backlog and wait gauges and returns the function that refreshes them at
// each snapshot tick (nothing to register or refresh in discrete mode).
func (r *run) fluidGauges() func() {
	if r.fnet == nil {
		return func() {}
	}
	reg := r.p.Metrics()
	type gaugeSet struct {
		st                              *fluid.Station
		rho, backlog, wait, pRho, pWait *obs.Gauge
	}
	var sets []gaugeSet
	for _, s := range r.fnet.Stations() {
		lbl := obs.L("station", s.Name)
		sets = append(sets, gaugeSet{
			st:      s,
			rho:     reg.Gauge("jade_fluid_rho", "Fluid station member utilization last tick.", lbl),
			backlog: reg.Gauge("jade_fluid_backlog", "Fluid station backlog beyond capacity (requests).", lbl),
			wait:    reg.Gauge("jade_fluid_wait_seconds", "Fluid station per-request latency estimate.", lbl),
			pRho:    reg.Gauge("jade_fluid_peak_rho", "Fluid station peak member utilization.", lbl),
			pWait:   reg.Gauge("jade_fluid_peak_wait_seconds", "Fluid station peak latency estimate.", lbl),
		})
	}
	return func() {
		for _, g := range sets {
			g.rho.Set(g.st.Rho())
			g.backlog.Set(g.st.Backlog())
			g.wait.Set(g.st.Wait())
			g.pRho.Set(g.st.PeakRho())
			g.pWait.Set(g.st.PeakWait())
		}
	}
}

// faults schedules the scripted disturbances, all relative to workload
// start: the single FailAt crash, the chaos schedule and the operator's
// live-configuration events.
func (r *run) faults() error {
	cfg, p := &r.cfg, r.p
	if cfg.FailComponent != "" {
		p.Eng.After(cfg.FailAt, "inject-failure", func() {
			if node, err := r.dep.NodeOf(cfg.FailComponent); err == nil {
				node.Fail()
			}
		})
	}
	if len(cfg.Chaos) > 0 {
		// A Reboot names the node its earlier Crash actually hit.
		crashed := map[string]*cluster.Node{}
		for _, ev := range cfg.Chaos.Sorted() {
			ev := ev
			p.Eng.At(r.res.WorkloadStart+ev.At, "chaos:"+string(ev.Kind), func() { r.chaosEvent(ev, crashed) })
		}
	}
	for _, ev := range cfg.Operator.Sorted() {
		ev := ev
		p.Eng.At(r.res.WorkloadStart+ev.At, "config:operator", func() {
			r.applyPatch("operator", refresh.SourceOperator, ev.Patch)
		})
	}
	return nil
}

// resolveNode maps a chaos target to a node at fire time: a component
// name resolves to its current node (a component discarded by a repair no
// longer resolves), anything else is looked up as a node name.
func (r *run) resolveNode(target string) *cluster.Node {
	if node, err := r.dep.NodeOf(target); err == nil {
		return node
	}
	if node, ok := r.p.Pool.Lookup(target); ok {
		return node
	}
	return nil
}

// crashNode fails a live node on behalf of a fault injector, reporting
// whether there was anything left to crash.
func (r *run) crashNode(node *cluster.Node, target string) bool {
	if node == nil || node.Failed() {
		return false
	}
	r.p.Logf("chaos: crashing %s (%s)", node.Name(), target)
	node.Fail()
	r.res.InjectedFailures++
	return true
}

// applyPatch funnels one scripted configuration change through the hub.
func (r *run) applyPatch(who, source string, patch json.RawMessage) {
	if err := r.hub.Apply(r.p.Eng.Now(), source, patch); err != nil {
		r.p.Logf("%s: config patch rejected: %v", who, err)
	} else {
		r.p.Logf("%s: applied config patch %s", who, patch)
	}
}

// chaosEvent executes one chaos-schedule event at its fire time.
func (r *run) chaosEvent(ev invariant.Event, crashed map[string]*cluster.Node) {
	p, fabric := r.p, r.fabric
	switch ev.Kind {
	case invariant.Crash:
		if node := r.resolveNode(ev.Target); r.crashNode(node, ev.Target) {
			crashed[ev.Target] = node
		}
	case invariant.Reboot:
		node := crashed[ev.Target]
		if node == nil {
			node = r.resolveNode(ev.Target)
		}
		if node != nil && node.Failed() {
			p.Logf("chaos: rebooting %s (%s)", node.Name(), ev.Target)
			node.Reboot()
		}
	case invariant.Slow:
		node := r.resolveNode(ev.Target)
		if node == nil || node.Failed() {
			return
		}
		dur := ev.Duration
		if dur <= 0 {
			dur = 60
		}
		p.Logf("chaos: slowing %s (%s) for %.0f s", node.Name(), ev.Target, dur)
		if hog := node.Submit(1e12, nil, nil); hog != nil {
			p.Eng.After(dur, "chaos:slow-end", func() { node.Cancel(hog) })
		}
	case invariant.Partition:
		if !fabric.Enabled() {
			p.Logf("chaos: partition event ignored (network fabric disabled)")
			return
		}
		a := resolveEndpoints(r.dep, ev.A)
		b := resolveEndpoints(r.dep, ev.B)
		p.Logf("chaos: partitioning %v | %v", a, b)
		id := fabric.Partition(a, b)
		if ev.Duration > 0 {
			p.Eng.After(ev.Duration, "chaos:partition-heal", func() {
				p.Logf("chaos: healing partition %v | %v", a, b)
				fabric.Heal(id)
			})
		}
	case invariant.Heal:
		if fabric.Enabled() {
			p.Logf("chaos: healing all partitions")
			fabric.HealAll()
		}
	case invariant.Config:
		r.applyPatch("chaos", refresh.SourceChaos, ev.Patch)
	default:
		if r.cfg.ChaosHandler == nil || !r.cfg.ChaosHandler(r.res, ev) {
			p.Logf("chaos: unhandled event kind %q on %s", ev.Kind, ev.Target)
		}
	}
}

// pacing slows a serve-mode run to cfg.Pace virtual seconds per
// wall-clock second. The callback only sleeps.
func (r *run) pacing() error {
	if r.cfg.Pace <= 0 {
		return nil
	}
	wallStart := time.Now()
	virtStart := r.p.Eng.Now()
	r.p.Eng.Every(1, "pace", func(now float64) {
		target := time.Duration(float64(time.Second) * (now - virtStart) / r.cfg.Pace)
		if ahead := target - time.Since(wallStart); ahead > 0 {
			time.Sleep(ahead)
		}
	})
	return nil
}

// churn injects node crashes with exponentially distributed inter-failure
// times (cfg.MTBFSeconds) for the length of the workload. Its first delay
// is drawn from the engine's random stream when the stage runs, so the
// stage must stay after every other stage that draws at setup (workload).
func (r *run) churn() error {
	cfg, p := &r.cfg, r.p
	if cfg.MTBFSeconds <= 0 {
		return nil
	}
	var scheduleCrash func()
	scheduleCrash = func() {
		p.Eng.After(p.Eng.Exponential(cfg.MTBFSeconds), "chaos", func() {
			if p.Eng.Now() >= r.res.WorkloadStart+cfg.Profile.Duration() {
				return // workload over, stop injecting
			}
			// Crash a random currently deployed replica node (app or db
			// tier; balancers and the controller are spared so
			// availability stays attributable to replica repair).
			victims := append(r.appTier.ReplicaNames(), r.dbTier.ReplicaNames()...)
			if len(victims) > 0 {
				victim := victims[p.Eng.Rand().Intn(len(victims))]
				if node, err := r.dep.NodeOf(victim); err == nil && r.crashNode(node, victim) {
					// The node is later repaired off-pool; reboot it so
					// the pool does not starve under long churn.
					p.Eng.After(60, "chaos:reboot", node.Reboot)
				}
			}
			scheduleCrash()
		})
	}
	scheduleCrash()
	return nil
}
