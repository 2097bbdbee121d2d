// Package fluid implements the hybrid fluid-flow workload model: instead
// of simulating every request as a discrete event chain, tiers exchange
// request *rates* and queue-theoretic latency/CPU estimates on a coarse
// virtual-time tick (sim.TickBarrier), while discrete events are reserved
// for management actions, faults, network messages and a sampled request
// stream.
//
// The model is a closed queueing network solved by fixed-point iteration
// across ticks, in the style of dcsim's rate-exchange tiers:
//
//   - The client population N thinks for Z seconds between requests, so
//     the offered rate is λ = N / (Z + R) with R the network's current
//     end-to-end response estimate — an overloaded system throttles its
//     own offered load exactly like the closed-loop discrete emulator.
//   - Each tier is a Station: k live member nodes served by processor
//     sharing. A request puts Demand(k) CPU-seconds on each member on
//     average (load-balanced work contributes D/k, RAIDb-1 broadcast
//     writes contribute D to every member), so member utilization is
//     ρ = λ·Demand(k)/C and the tier saturates at μ = C/Demand(k).
//   - Excess arrivals accumulate in a tier backlog drained at capacity;
//     the per-request latency estimate is the M/M/1-PS mean response
//     S/(1-ρ) plus the backlog drain time.
//   - Each tick every member node receives the tier's ρ as background
//     CPU load (cluster.Node.SetBackgroundLoad), which feeds the same
//     utilization meters the paper's CPU sensors read — the sizing
//     control loops observe fluid load exactly as they observe discrete
//     load, and sampled discrete requests are slowed by the mean-field
//     contention of the flow they ride alongside.
//
// Everything is pure float arithmetic driven by barrier ticks in
// deterministic order, so fluid runs replay byte-identically per seed.
package fluid

import (
	"math"

	"jade/internal/cluster"
)

// rhoSafe caps the utilization used in the 1/(1-ρ) processor-sharing
// latency term; at and beyond saturation the backlog term takes over.
const rhoSafe = 0.98

// ServiceModel is one tier component's contribution to the fluid
// network: the parameters a component exposes (see the FluidModel
// methods on the PLB / L4 balancer and the C-JDBC controller) so scenario
// wiring can assemble Stations without reaching into component internals.
type ServiceModel struct {
	// Name identifies the component (diagnostics only).
	Name string
	// Node is the machine the component runs on.
	Node *cluster.Node
	// CostPerUnit is the component's own CPU demand per unit of work —
	// per forwarded request for the L4 switch and PLB, per proxied query
	// for C-JDBC. The demand of Apache, Tomcat and MySQL is carried by the
	// request itself; those tiers expose no model, and their stations are
	// mix-calibrated via rubis.FluidDemand.
	CostPerUnit float64
	// Up reports whether the component is serving.
	Up func() bool
}

// Station is one tier of the fluid network.
type Station struct {
	// Name identifies the tier in reports ("plb", "app", ...).
	Name string
	// Demand returns the mean CPU-seconds one request puts on EACH of k
	// live members: load-balanced work contributes D/k, broadcast work
	// contributes D per member.
	Demand func(k int) float64
	// Service returns the sequential service demand one request
	// experiences on its path through the tier (latency numerator): the
	// full per-request cost, independent of k for balanced work.
	Service func(k int) float64
	// Members returns the live member nodes in deterministic order.
	Members func() []*cluster.Node

	// ThrashThreshold / ThrashFactor mirror the member nodes' thrashing
	// regime (cluster.Config) at tier level: when the per-member backlog
	// exceeds the threshold, the tier's service rate degrades by
	// 1/(1+factor·excess), reproducing the throughput collapse the
	// discrete engine shows when node job queues grow past the knee.
	// Zero threshold disables thrash modeling.
	ThrashThreshold int
	ThrashFactor    float64

	backlog float64 // requests queued beyond capacity
	rho     float64 // member utilization last tick
	wait    float64 // per-request latency estimate last tick (s)
	svc     float64 // sequential (uninflated) service estimate last tick (s)

	peakRho     float64
	peakBacklog float64
	peakWait    float64
}

// Rho returns the station's member utilization from the last tick.
func (s *Station) Rho() float64 { return s.rho }

// Backlog returns the queued requests beyond capacity.
func (s *Station) Backlog() float64 { return s.backlog }

// Wait returns the last per-request latency estimate in seconds.
func (s *Station) Wait() float64 { return s.wait }

// Svc returns the last sequential service-demand estimate in seconds —
// the ideal (uninflated) part of Wait; the rest is queueing.
func (s *Station) Svc() float64 { return s.svc }

// PeakRho returns the highest member utilization seen so far.
func (s *Station) PeakRho() float64 { return s.peakRho }

// PeakBacklog returns the largest backlog seen so far.
func (s *Station) PeakBacklog() float64 { return s.peakBacklog }

// PeakWait returns the worst per-request latency estimate seen so far.
func (s *Station) PeakWait() float64 { return s.peakWait }

// Config parameterizes a Network.
type Config struct {
	// ThinkTime is the mean client think time Z in seconds.
	ThinkTime float64
	// Population returns the fluid client count at virtual time now
	// (total population minus the sampled discrete clients).
	Population func(now float64) float64
}

// Network is the closed fluid queueing network over an ordered chain of
// stations. Register its Tick on a sim.TickBarrier.
type Network struct {
	cfg      Config
	stations []*Station

	resp      float64 // end-to-end response estimate R (s)
	rate      float64 // offered rate λ last tick (req/s)
	completed float64 // integral of the final station's departure rate

	peakRate       float64
	peakPopulation float64
	peakResp       float64
	ticks          uint64

	// background bookkeeping: nodes loaded on the previous tick, in
	// deterministic order, so members leaving a tier get their
	// background load cleared.
	prevNodes []*cluster.Node
}

// NewNetwork creates a fluid network over the given station chain
// (request flow order). ThinkTime must be positive.
func NewNetwork(cfg Config, stations ...*Station) *Network {
	if cfg.ThinkTime <= 0 {
		panic("fluid: non-positive think time")
	}
	if cfg.Population == nil {
		panic("fluid: nil population function")
	}
	return &Network{cfg: cfg, stations: stations}
}

// Stations returns the station chain.
func (n *Network) Stations() []*Station { return n.stations }

// Rate returns the offered request rate λ from the last tick.
func (n *Network) Rate() float64 { return n.rate }

// Response returns the end-to-end response time estimate in seconds.
func (n *Network) Response() float64 { return n.resp }

// Completed returns the cumulative completed fluid requests.
func (n *Network) Completed() float64 { return n.completed }

// Tick advances the fluid model by dt seconds. Register on a
// sim.TickBarrier; now is the barrier's virtual time.
func (n *Network) Tick(now, dt float64) {
	if dt <= 0 {
		return
	}
	pop := n.cfg.Population(now)
	if pop < 0 {
		pop = 0
	}
	if pop > n.peakPopulation {
		n.peakPopulation = pop
	}
	// Closed-loop offered rate from the previous response estimate.
	lambda := pop / (n.cfg.ThinkTime + n.resp)
	n.rate = lambda
	if lambda > n.peakRate {
		n.peakRate = lambda
	}

	var resp float64
	var nodes []*cluster.Node
	loads := make(map[*cluster.Node]float64, len(n.prevNodes))
	flow := lambda
	for _, s := range n.stations {
		flow = s.step(dt, flow, &nodes, loads)
		resp += s.wait
	}
	n.completed += flow * dt
	n.resp = resp
	if resp > n.peakResp {
		n.peakResp = resp
	}
	n.ticks++

	// Apply background loads in deterministic (station, member) order;
	// clear nodes that dropped out since the previous tick.
	for _, node := range n.prevNodes {
		if _, ok := loads[node]; !ok {
			node.SetBackgroundLoad(0)
		}
	}
	for _, node := range nodes {
		node.SetBackgroundLoad(loads[node])
	}
	n.prevNodes = nodes
}

// step advances one station: it serves what capacity allows out of the
// incoming flow plus the backlog, updates ρ/latency/backlog, accumulates
// the members' background load, and returns the departure rate.
func (s *Station) step(dt, in float64, nodes *[]*cluster.Node, loads map[*cluster.Node]float64) float64 {
	members := s.Members()
	live := members[:0:0]
	var capSum float64
	for _, m := range members {
		if m.Failed() {
			continue
		}
		live = append(live, m)
		capSum += m.Config().CPUCapacity
	}
	k := len(live)
	if k == 0 {
		// Nothing serving: the flow stalls into the backlog.
		s.backlog += in * dt
		s.rho = 0
		s.svc = 0
		s.wait = s.backlog // pessimistic: no drain rate to divide by
		if s.backlog > s.peakBacklog {
			s.peakBacklog = s.backlog
		}
		if s.wait > s.peakWait {
			s.peakWait = s.wait
		}
		return 0
	}
	demand := s.Demand(k)
	meanCap := capSum / float64(k)
	// Tier service rate: member utilization hits 1 when λ·Demand = C.
	mu := math.Inf(1)
	if demand > 0 {
		mu = meanCap / demand
		if s.ThrashThreshold > 0 {
			if over := s.backlog/float64(k) - float64(s.ThrashThreshold); over > 0 {
				mu /= 1 + s.ThrashFactor*over
			}
		}
	}
	offered := in + s.backlog/dt
	served := offered
	if served > mu {
		served = mu
	}
	s.backlog += (in - served) * dt
	if s.backlog < 1e-9 {
		s.backlog = 0
	}
	rho := 0.0
	if mu > 0 && !math.IsInf(mu, 1) {
		rho = served / mu
	}
	s.rho = rho
	if rho > s.peakRho {
		s.peakRho = rho
	}
	if s.backlog > s.peakBacklog {
		s.peakBacklog = s.backlog
	}
	// Per-request latency: PS inflation of the sequential service demand
	// plus time to drain ahead-of-us backlog.
	svc := s.Service(k)
	wait := svc / (1 - math.Min(rho, rhoSafe))
	if s.backlog > 0 && mu > 0 && !math.IsInf(mu, 1) {
		wait += s.backlog / mu
	}
	s.svc = svc
	s.wait = wait
	if wait > s.peakWait {
		s.peakWait = wait
	}
	// Background CPU load on each member. Accumulate: distinct stations
	// may share a node (e.g. a co-located proxy).
	for _, m := range live {
		if _, ok := loads[m]; !ok {
			*nodes = append(*nodes, m)
		}
		loads[m] += rho
	}
	return served
}

// StationReport is one tier's aggregate outcome for artifacts.
type StationReport struct {
	Name         string  `json:"name"`
	PeakRho      float64 `json:"peak_rho"`
	PeakBacklog  float64 `json:"peak_backlog"`
	FinalBacklog float64 `json:"final_backlog"`
	FinalRho     float64 `json:"final_rho"`
	FinalWaitSec float64 `json:"final_wait_sec"`
	FinalSvcSec  float64 `json:"final_svc_sec"`
	PeakWaitSec  float64 `json:"peak_wait_sec"`
}

// Report is the fluid network's run summary, rendered into experiment
// artifacts (deterministic: same seed, same bytes).
type Report struct {
	Ticks           uint64          `json:"ticks"`
	Completed       float64         `json:"completed"`
	PeakPopulation  float64         `json:"peak_population"`
	PeakRate        float64         `json:"peak_rate_per_sec"`
	PeakResponseSec float64         `json:"peak_response_sec"`
	Stations        []StationReport `json:"stations"`
}

// Report summarizes the run so far.
func (n *Network) Report() Report {
	r := Report{
		Ticks:           n.ticks,
		Completed:       n.completed,
		PeakPopulation:  n.peakPopulation,
		PeakRate:        n.peakRate,
		PeakResponseSec: n.peakResp,
	}
	for _, s := range n.stations {
		r.Stations = append(r.Stations, StationReport{
			Name:         s.Name,
			PeakRho:      s.peakRho,
			PeakBacklog:  s.peakBacklog,
			FinalBacklog: s.backlog,
			FinalRho:     s.rho,
			FinalWaitSec: s.wait,
			FinalSvcSec:  s.svc,
			PeakWaitSec:  s.peakWait,
		})
	}
	return r
}
