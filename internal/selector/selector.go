// Package selector is the shared backend-selection framework of the
// three balancing tiers (L4 switch, PLB, C-JDBC). Each tier used to
// hardwire its own round-robin / least-pending loop; this package
// factors the choice into one Selector interface with pluggable
// policies, plus a stateful Pool (pool.go) that tracks in-flight
// counts, exponentially-decaying failure and latency reservoirs
// clocked on sim virtual time, and suspected-down backends fed by the
// φ-accrual detector (core.Suspector).
//
// Everything here is deterministic: selection depends only on the
// registration order of backends, their recorded state and the virtual
// clock — never on map iteration or wall time — so equal seeds keep
// producing byte-identical traces.
package selector

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by the framework.
var (
	ErrExists    = errors.New("selector: backend already registered")
	ErrUnknown   = errors.New("selector: unknown backend")
	ErrBadWeight = errors.New("selector: weight must be positive")
)

// Policy names a backend-selection strategy.
type Policy int

// Policies.
const (
	// RoundRobin cycles through the backends in registration order.
	RoundRobin Policy = iota
	// WeightedRoundRobin spreads picks proportionally to backend
	// weights using per-round credits (the L4 switch's historic policy).
	WeightedRoundRobin
	// LeastPending picks the backend with the fewest in-flight
	// requests, ties broken by registration order.
	LeastPending
	// Balanced scores each backend by in-flight count plus its decayed
	// failure and latency reservoirs and picks the minimum: a gray
	// (slow-but-alive) backend accumulates latency and in-flight debt
	// and organically stops receiving traffic.
	Balanced
	// Rendezvous maps an affinity key (session ID, SQL text) onto a
	// backend by highest-random-weight hashing: the same key keeps
	// landing on the same backend, and removing one backend only moves
	// the keys that were mapped to it (~1/n of the keyspace).
	Rendezvous
)

// String returns the canonical spelling accepted by ParsePolicy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case WeightedRoundRobin:
		return "weighted-round-robin"
	case LeastPending:
		return "least-pending"
	case Balanced:
		return "balanced"
	case Rendezvous:
		return "rendezvous"
	}
	return "?"
}

// PolicyNames lists the accepted policy spellings.
func PolicyNames() []string {
	return []string{"round-robin", "weighted-round-robin", "least-pending", "balanced", "rendezvous"}
}

// ParsePolicy parses a policy name. "least-connections" is accepted as
// an alias of least-pending (PLB's historic spelling).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "round-robin":
		return RoundRobin, nil
	case "weighted-round-robin":
		return WeightedRoundRobin, nil
	case "least-pending", "least-connections":
		return LeastPending, nil
	case "balanced":
		return Balanced, nil
	case "rendezvous":
		return Rendezvous, nil
	}
	return 0, fmt.Errorf("selector: unknown policy %q (want one of %v)", s, PolicyNames())
}

// Context carries the per-request inputs of a selection: the affinity
// key (empty when the request has none) and the current virtual time.
type Context struct {
	Key string
	Now float64
}

// Selector picks one backend from a non-empty candidate list. The list
// is in registration order and contains only eligible (not suspected
// down) backends; implementations must be deterministic functions of
// the candidates, their recorded state and ctx. The slice is the pool's
// scratch space, valid only during the call: an implementation may keep
// the *Backend it returns, never the slice.
type Selector interface {
	Pick(candidates []*Backend, ctx Context) *Backend
}

// reservoir is an exponentially-decaying accumulator clocked on virtual
// time: Value(now) halves every HalfLife seconds of inactivity. Reads
// are pure (no stored state changes), so concurrent observers can never
// perturb the floating-point trajectory a deterministic run follows.
type reservoir struct {
	halfLife float64
	value    float64
	last     float64
}

func (r *reservoir) add(now, v float64) {
	r.value = r.valueAt(now) + v
	if now > r.last {
		r.last = now
	}
}

func (r *reservoir) valueAt(now float64) float64 {
	if r.value == 0 || now <= r.last {
		return r.value
	}
	return r.value * math.Exp2(-(now-r.last)/r.halfLife)
}

// Backend is the per-backend state the policies score. Its mutable
// fields are owned by the Pool; policies only read them (and consume
// weighted-round-robin credits).
type Backend struct {
	name   string
	weight int

	credit   int
	inflight int
	served   uint64
	failed   uint64

	fail reservoir // decayed failure count
	lat  reservoir // decayed latency sum (seconds)
	latN reservoir // decayed latency sample count

	down      bool
	probing   bool
	downSince float64
}

// Name returns the backend's registered name.
func (b *Backend) Name() string { return b.name }

// The balanced score's reservoir weights: one recent failure costs as much
// as ten in-flight requests, one second of mean latency as much as ten.
const (
	failureWeight = 10
	latencyWeight = 10
)

// Score is the balanced policy's ranking at virtual time now: in-flight
// count plus the decayed failure reservoir (weighted failureWeight) plus
// the decayed mean latency in seconds (weighted latencyWeight). Lower is
// better. Pure: scoring never mutates the backend.
func (b *Backend) Score(now float64) float64 {
	s := float64(b.inflight) + failureWeight*b.fail.valueAt(now)
	if n := b.latN.valueAt(now); n > 1e-9 {
		s += latencyWeight * b.lat.valueAt(now) / n
	}
	return s
}

// --- policies ---

type roundRobin struct{ next int }

func (p *roundRobin) Pick(cs []*Backend, _ Context) *Backend {
	b := cs[p.next%len(cs)]
	p.next++
	return b
}

// weightedRoundRobin ports the L4 switch's credit scheme: each backend
// holds credit slots refilled to its weight once every eligible credit
// is spent, so a round of sum(weights) picks serves each backend
// exactly weight times.
type weightedRoundRobin struct{}

func (weightedRoundRobin) Pick(cs []*Backend, _ Context) *Backend {
	for pass := 0; pass < 2; pass++ {
		for _, b := range cs {
			if b.credit > 0 {
				b.credit--
				return b
			}
		}
		for _, b := range cs {
			b.credit = b.weight
		}
	}
	return cs[0]
}

type leastPending struct{}

func (leastPending) Pick(cs []*Backend, _ Context) *Backend {
	best := cs[0]
	for _, b := range cs[1:] {
		if b.inflight < best.inflight {
			best = b
		}
	}
	return best
}

type balanced struct{ rr roundRobin }

func (p *balanced) Pick(cs []*Backend, ctx Context) *Backend {
	best := cs[0]
	bestScore := best.Score(ctx.Now)
	tie := 1
	for _, b := range cs[1:] {
		s := b.Score(ctx.Now)
		switch {
		case s < bestScore:
			best, bestScore, tie = b, s, 1
		case s == bestScore:
			tie++
		}
	}
	if tie == len(cs) && bestScore == 0 {
		// Cold start: all backends indistinguishable; round-robin so the
		// first requests spread instead of piling on the first backend.
		return p.rr.Pick(cs, ctx)
	}
	return best
}

type rendezvous struct{ rr roundRobin }

func (p *rendezvous) Pick(cs []*Backend, ctx Context) *Backend {
	if ctx.Key == "" {
		// No affinity key: hashing would pin all traffic to one backend,
		// so degrade to round-robin.
		return p.rr.Pick(cs, ctx)
	}
	best := cs[0]
	bestScore := rendezvousScore(ctx.Key, best.name)
	for _, b := range cs[1:] {
		s := rendezvousScore(ctx.Key, b.name)
		if s > bestScore || (s == bestScore && b.name < best.name) {
			best, bestScore = b, s
		}
	}
	return best
}

// newSelector builds the policy implementation for a pool.
func newSelector(opts Options) Selector {
	switch opts.Policy {
	case WeightedRoundRobin:
		return weightedRoundRobin{}
	case LeastPending:
		return leastPending{}
	case Balanced:
		return &balanced{}
	case Rendezvous:
		return &rendezvous{}
	default:
		return &roundRobin{}
	}
}

// rendezvousScore is the FNV-1a 64 hash of key ++ NUL ++ name: the
// highest-random-weight score of assigning key to name.
func rendezvousScore(key, name string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	h ^= 0
	h *= prime
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}

// RendezvousPick maps key onto one of candidates by highest-random-
// weight hashing: deterministic, stable for identical inputs, and
// removing a candidate only moves the keys that were mapped to it.
// Duplicate candidate names tie towards the lexicographically smallest,
// so permutations of the input produce the same pick. Returns false
// only for an empty candidate list.
func RendezvousPick(key string, candidates []string) (string, bool) {
	if len(candidates) == 0 {
		return "", false
	}
	best := candidates[0]
	bestScore := rendezvousScore(key, best)
	for _, c := range candidates[1:] {
		s := rendezvousScore(key, c)
		if s > bestScore || (s == bestScore && c < best) {
			best, bestScore = c, s
		}
	}
	return best, true
}
