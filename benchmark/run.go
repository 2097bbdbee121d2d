package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"jade"
)

// measured is one reported number with its unit, as the last output
// line carries it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload reports; it is written
// to <out>/<workload>.trace<0|1>.json and read back by the all-workloads
// mode and by -compare.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Correct  bool   `json:"correct"`
	// Errors are the failed checks, empty when Correct.
	Errors []string `json:"errors,omitempty"`
	// Attempted and Failed count client requests over the timed
	// iterations; see workload.injectsFaults for what counts as failed.
	Attempted  uint64 `json:"attempted"`
	Failed     uint64 `json:"failed"`
	Iterations int    `json:"iterations"`
	// Model is the last iteration's modelled outcome; its Digest is the
	// same on every iteration or Correct is false.
	Model   outcome             `json:"model"`
	Metrics map[string]measured `json:"metrics"`
	// Samples are the per-iteration values behind the medians.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// Set-up is repeated for its median: setupPasses times before the first
// iteration and setupPassesBetween times after each, so that the median
// samples the whole run and not only its first half second (this host's
// speed changes from one minute to the next).
const (
	setupPasses        = 20
	setupPassesBetween = 4
)

// iteration is one timed RunScenario.
type iteration struct {
	wall, cpu       float64 // seconds
	mallocs, bytes  uint64
	gcCycles        uint32
	gcPauseMs       float64
	profiledSamples []cpuSample
	model           outcome
	run             *jade.ScenarioResult
}

type runner struct {
	w      *workload
	seed   int64
	outDir string
	spans  *spanLog
	errs   []string
	digest string
	// setupS and datasetMs collect every set-up pass's duration and its
	// dataset phase's.
	setupS, datasetMs []float64
}

func (rn *runner) failf(format string, args ...any) {
	rn.errs = append(rn.errs, fmt.Sprintf(format, args...))
}

// setUp does, passes times over, what every run pays before its first
// client request: build and validate the configuration, generate the
// initial database, and deploy the architecture (a run of the smallest
// workload the emulator accepts).
func (rn *runner) setUp(passes int) error {
	for i := 0; i < passes; i++ {
		end := rn.spans.begin("setup")
		var cfg jade.ScenarioConfig
		var err error
		rn.spans.timed("setup.config", func() {
			cfg = rn.w.config(rn.seed, rn.outDir)
			err = cfg.Routing.Validate()
		})
		var dataset time.Duration
		if err == nil {
			dataset = rn.spans.timed("setup.dataset", func() {
				ds := jade.DefaultDataset()
				sink, err = ds.InitialDatabase(rn.seed)
			})
		}
		if err == nil {
			rn.spans.timed("setup.deploy_run", func() {
				_, err = jade.RunScenario(deployOnly(cfg))
			})
		}
		total := end()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rn.setupS = append(rn.setupS, total.Seconds())
		rn.datasetMs = append(rn.datasetMs, ms(dataset))
	}
	return nil
}

// iterate runs the workload once, timed, with a CPU profile when asked.
// Memory statistics are read outside the timed region (reading them
// stops the world), after a collection that gives every iteration the
// same starting heap.
func (rn *runner) iterate(cfg jade.ScenarioConfig, profile bool) (*iteration, error) {
	if err := prepare(cfg); err != nil {
		return nil, err
	}
	name := "iteration"
	if profile {
		name = "iteration.profiled"
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	var prof bytes.Buffer
	runtime.ReadMemStats(&m0)
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	end := rn.spans.begin(name)
	u0 := readUsage()
	r, err := jade.RunScenario(cfg)
	u1 := readUsage()
	wall := end()
	if profile {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}

	it := &iteration{
		wall:      wall.Seconds(),
		cpu:       (u1.cpu - u0.cpu).Seconds(),
		mallocs:   m1.Mallocs - m0.Mallocs,
		bytes:     m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:  m1.NumGC - m0.NumGC,
		gcPauseMs: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		run:       r,
	}
	rn.spans.timed("check", func() {
		it.model = summarize(r)
		if err := rn.w.checkRun(cfg, r); err != nil {
			rn.failf("%s: %v", rn.w.name, err)
		}
		switch {
		case rn.digest == "":
			rn.digest = it.model.Digest
		case rn.digest != it.model.Digest:
			rn.failf("%s: model.digest %s differs from the first iteration's %s", rn.w.name, it.model.Digest, rn.digest)
		}
	})
	if profile {
		if it.profiledSamples, err = decodeCPUProfile(prof.Bytes()); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// runWorkload measures one workload for about the given number of
// seconds and returns its result. Untraced, it reports the end-to-end
// metrics; traced, the per-layer ones.
func runWorkload(w *workload, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	runtime.GOMAXPROCS(2)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rn := &runner{w: w, seed: seed, outDir: outDir, spans: newSpanLog()}
	res := &result{Workload: w.name, Seed: seed, Traced: traced, Metrics: map[string]measured{}, Samples: map[string][]float64{}}

	if err := rn.setUp(setupPasses); err != nil {
		return nil, err
	}

	cfg := w.config(seed, outDir)
	var err error
	if traced {
		err = rn.measureLayers(cfg, seconds, res)
	} else {
		err = rn.measureEndToEnd(cfg, seconds, res)
	}
	if err != nil {
		return nil, err
	}
	res.Errors = rn.errs
	res.Correct = len(rn.errs) == 0

	suffix := "trace0"
	if traced {
		suffix = "trace1"
	}
	if err := rn.spans.write(filepath.Join(outDir, w.name+"."+suffix+".spans.json")); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(filepath.Join(outDir, w.name+"."+suffix+".json"), append(data, '\n'), 0o644)
}

// count adds one measured iteration's client requests to the result.
func (rn *runner) count(res *result, it *iteration) {
	res.Iterations++
	res.Model = it.model
	res.Attempted += it.model.Completed + it.model.Failed
	if !rn.w.injectsFaults {
		res.Failed += it.model.Failed
	}
}

func (rn *runner) measureEndToEnd(cfg jade.ScenarioConfig, seconds float64, res *result) error {
	start := time.Now()
	s := res.Samples
	for res.Iterations == 0 || time.Since(start).Seconds() < seconds {
		it, err := rn.iterate(cfg, false)
		if err != nil {
			return err
		}
		rn.count(res, it)
		s["wall_s"] = append(s["wall_s"], it.wall)
		s["cpu_s"] = append(s["cpu_s"], it.cpu)
		s["allocs_per_request"] = append(s["allocs_per_request"], float64(it.mallocs)/float64(it.model.Completed))
		s["alloc_kb_per_request"] = append(s["alloc_kb_per_request"], float64(it.bytes)/1024/float64(it.model.Completed))
		runtime.GC() // set up on the small heap a fresh process has, not on the finished run's
		if err := rn.setUp(setupPassesBetween); err != nil {
			return err
		}
	}
	s["setup_s"] = rn.setupS
	s["peak_rss_mb"] = []float64{readUsage().maxRSSMiB}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = measured{Value: median(s[d.Name]), Unit: d.Unit}
	}
	return nil
}

func (rn *runner) measureLayers(cfg jade.ScenarioConfig, seconds float64, res *result) error {
	start := time.Now()
	var plain, profiled, gcCycles, gcPause []float64
	cpu := map[string]float64{}
	var last *iteration
	for last == nil || time.Since(start).Seconds() < seconds {
		if last != nil {
			last.run = nil // only the final run feeds the drivers; do not hold the others' heaps
		}
		it, err := rn.iterate(cfg, false)
		if err != nil {
			return err
		}
		plain = append(plain, it.wall)
		if it, err = rn.iterate(cfg, true); err != nil {
			return err
		}
		profiled = append(profiled, it.wall)
		gcCycles = append(gcCycles, float64(it.gcCycles))
		gcPause = append(gcPause, it.gcPauseMs)
		for layer, sec := range attribute(it.profiledSamples) {
			cpu[layer] += sec
		}
		rn.count(res, it)
		last = it
	}
	res.Samples["wall_s"] = plain
	res.Samples["wall_s.profiled"] = profiled

	m := map[string]float64{}
	var total, known float64
	for _, sec := range cpu {
		total += sec
	}
	for _, l := range layers {
		m[l+".cpu_s"] = cpu[l] / float64(res.Iterations)
		known += cpu[l]
	}
	if total == 0 || math.Abs(known-total) > 0.01*total {
		rn.failf("%s: layer CPU shares sum to %.3f s of the profile's %.3f s", rn.w.name, known, total)
	}
	m["bench.profile_overhead_pct"] = 100 * (median(profiled)/median(plain) - 1)

	o := last.model
	m["sim.events"] = float64(o.Events)
	m["sim.events_per_request"] = float64(o.Events) / float64(o.Completed)
	m["rubis.requests_completed"] = float64(o.Completed)
	m["rubis.requests_failed"] = float64(o.Failed)
	m["netsim.messages"] = float64(o.NetMessages)
	m["netsim.rpcs"] = float64(o.NetRPCs)
	m["netsim.retransmits"] = float64(o.NetRetransmits)
	m["netsim.abandoned"] = float64(o.NetAbandoned)
	m["invariant.checks"] = float64(o.InvariantChecks)
	m["core.reconfigurations"] = float64(o.Reconfigurations)
	m["core.repairs"] = float64(o.Repairs)
	m["cluster.node_seconds"] = o.NodeSeconds
	m["cluster.peak_nodes"] = float64(o.PeakNodes)
	m["trace.spans"] = float64(o.TraceSpans)
	m["trace.events"] = float64(o.TraceEvents)
	m["trace.dropped"] = float64(o.TraceDropped)
	m["obs_alert.alerts"] = float64(o.Alerts)
	m["obs_attrib.requests"] = float64(o.Attributed)
	m["fluid.completed"] = o.FluidCompleted
	m["runtime_gc.cycles"] = median(gcCycles)
	m["runtime_gc.pause_ms"] = median(gcPause)
	m["model.latency_p50_ms"] = o.LatencyP50Ms
	m["model.latency_p99_ms"] = o.LatencyP99Ms
	m["model.throughput_rps"] = o.ThroughputRPS
	m["rubis.dataset_ms"] = median(rn.datasetMs)

	if err := runDrivers(rn.spans, driverInput{seed: rn.seed, cfg: cfg, last: last.run}, m); err != nil {
		return fmt.Errorf("drivers: %w", err)
	}
	for _, d := range perLayer {
		res.Metrics[d.Name] = measured{Value: m[d.Name], Unit: d.Unit}
		delete(m, d.Name)
	}
	if len(m) > 0 {
		return fmt.Errorf("per-layer metrics measured but not declared in metrics.go: %v", m)
	}
	return nil
}

// print writes the human-readable report and, as the last line, the
// one-object summary the benchmark contract asks for.
func (res *result) print() error {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	fmt.Printf("workload %s  seed %d  traced %v  iterations %d\n", res.Workload, res.Seed, res.Traced, res.Iterations)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		line := fmt.Sprintf("  %-34s %14.6g %-5s", d.Name, v.Value, v.Unit)
		if s := res.Samples[d.Name]; len(s) > 1 {
			lo, hi := minMax(s)
			line += fmt.Sprintf("  median of n=%d, min %.6g, max %.6g", len(s), lo, hi)
		}
		fmt.Println(line)
	}
	o := res.Model
	fmt.Printf("  client requests per iteration: %d attempted, %d failed (modelled); counted as failed operations: %d of %d\n",
		o.Completed+o.Failed, o.Failed, res.Failed, res.Attempted)
	fmt.Printf("  model.digest %s\n", o.Digest)
	for _, e := range res.Errors {
		fmt.Printf("  CHECK FAILED: %s\n", e)
	}
	last, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted uint64              `json:"attempted"`
		Failed    uint64              `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}
