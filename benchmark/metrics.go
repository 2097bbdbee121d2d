package main

// A metricDef names one reported number. BENCHMARK.json lists the same
// definitions; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share
}

// endToEnd are the host-side costs a user of the simulator pays for one
// run, measured with tracing and profiling off. Modelled statistics are
// not here: they repeat exactly and go into the digest.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_request", Unit: "count", Better: "lower", Bound: 0.06},
	{Name: "alloc_kb_per_request", Unit: "KiB", Better: "lower", Bound: 0.06},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is every per-layer metric, in print order: CPU seconds per
// layer from the profile, exact counts from the run's result, and the
// driver timings.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{Name: l + ".cpu_s", Unit: "s", Better: "lower"})
	}
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("%", "lower", "bench.profile_overhead_pct")
	add("count", "lower",
		"sim.events", "sim.events_per_request",
		"rubis.requests_failed",
		"netsim.messages", "netsim.rpcs", "netsim.retransmits", "netsim.abandoned",
		"invariant.checks",
		"core.reconfigurations", "core.repairs",
		"cluster.node_seconds", "cluster.peak_nodes",
		"trace.spans", "trace.events", "trace.dropped",
		"obs_alert.alerts",
		"runtime_gc.cycles")
	add("count", "higher", "rubis.requests_completed", "obs_attrib.requests", "fluid.completed")
	add("ms", "lower", "runtime_gc.pause_ms", "model.latency_p50_ms", "model.latency_p99_ms")
	add("1/s", "higher", "model.throughput_rps")
	add("count", "higher", "sqlengine.driver_statements")
	add("ns", "lower", "sqlengine.driver_parse_ns_p50")
	add("us", "lower",
		"sqlengine.driver_select_us_p50", "sqlengine.driver_select_us_p99",
		"sqlengine.driver_write_us_p50", "sqlengine.driver_write_us_p99")
	add("ms", "lower", "sqlengine.driver_fingerprint_ms", "sqlengine.driver_snapshot_ms")
	add("ns", "lower",
		"sim.driver_ns_per_event", "sim.driver_ns_per_cancel",
		"cluster.driver_ns_per_job",
		"rubis.driver_ns_per_request_gen")
	add("ms", "lower", "rubis.dataset_ms")
	add("ns", "lower",
		"selector.driver_ns_per_pick",
		"netsim.driver_ns_per_message", "netsim.driver_ns_per_rpc",
		"trace.driver_ns_per_span", "trace.driver_ns_per_span_off")
	add("ms", "lower", "trace.driver_export_ms")
	add("ns", "lower", "obs.driver_observe_ns")
	add("ms", "lower", "obs.driver_snapshot_ms", "obs.driver_expo_ms", "obs_attrib.driver_analyze_ms")
	add("ns", "lower", "fluid.driver_ns_per_tick", "refresh.driver_get_ns")
	add("ms", "lower", "core.deploy_ms")
	return defs
}()
