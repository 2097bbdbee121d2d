package cluster

import (
	"fmt"
	"sort"

	"jade/internal/obs"
	"jade/internal/sim"
)

// Pool is the cluster's free-node pool. The paper's Cluster Manager
// component allocates nodes from such a pool when a tier grows and returns
// them when it shrinks ("resources can be allocated only when required
// instead of pre-allocated").
type Pool struct {
	eng       *sim.Engine
	free      []*Node
	allocated map[string]*Node
	all       map[string]*Node

	// Metrics, when set, tracks allocations, releases, failed allocation
	// attempts and pool occupancy. Nil-safe; unit tests leave it unset.
	Metrics *obs.PoolMetrics
}

// observe refreshes the occupancy gauges after any pool mutation.
func (p *Pool) observe() {
	p.Metrics.SetSizes(p.FreeCount(), len(p.allocated))
}

// NewPool creates a pool of count identically configured nodes named
// prefix1..prefixN.
func NewPool(eng *sim.Engine, prefix string, count int, cfg Config) *Pool {
	p := &Pool{
		eng:       eng,
		allocated: make(map[string]*Node),
		all:       make(map[string]*Node),
	}
	for i := 1; i <= count; i++ {
		n := NewNode(eng, fmt.Sprintf("%s%d", prefix, i), cfg)
		p.free = append(p.free, n)
		p.all[n.Name()] = n
	}
	return p
}

// Allocate removes and returns a healthy free node, lowest name first (for
// determinism). It fails with ErrPoolExhausted when none is available.
func (p *Pool) Allocate() (*Node, error) {
	sort.Slice(p.free, func(i, j int) bool { return p.free[i].Name() < p.free[j].Name() })
	for i, n := range p.free {
		if n.Failed() {
			continue
		}
		p.free = append(p.free[:i], p.free[i+1:]...)
		p.allocated[n.Name()] = n
		if p.Metrics != nil {
			p.Metrics.Allocs.Inc()
			p.observe()
		}
		return n, nil
	}
	if p.Metrics != nil {
		p.Metrics.AllocFailed.Inc()
	}
	return nil, ErrPoolExhausted
}

// AllocateNamed removes and returns a specific free node by name (for
// ADL declarations that pin a component to a node).
func (p *Pool) AllocateNamed(name string) (*Node, error) {
	for i, n := range p.free {
		if n.Name() == name {
			if n.Failed() {
				if p.Metrics != nil {
					p.Metrics.AllocFailed.Inc()
				}
				return nil, fmt.Errorf("cluster: pinned node %s has failed", name)
			}
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.allocated[n.Name()] = n
			if p.Metrics != nil {
				p.Metrics.Allocs.Inc()
				p.observe()
			}
			return n, nil
		}
	}
	if _, ok := p.allocated[name]; ok {
		return nil, fmt.Errorf("cluster: pinned node %s already allocated", name)
	}
	return nil, fmt.Errorf("cluster: pinned node %s not in pool", name)
}

// Release returns an allocated node to the free list.
func (p *Pool) Release(n *Node) error {
	if _, ok := p.allocated[n.Name()]; !ok {
		return ErrNotAllocated
	}
	delete(p.allocated, n.Name())
	p.free = append(p.free, n)
	if p.Metrics != nil {
		p.Metrics.Releases.Inc()
		p.observe()
	}
	return nil
}

// FreeCount returns the number of free healthy nodes.
func (p *Pool) FreeCount() int {
	c := 0
	for _, n := range p.free {
		if !n.Failed() {
			c++
		}
	}
	return c
}

// AllocatedCount returns the number of allocated nodes.
func (p *Pool) AllocatedCount() int { return len(p.allocated) }

// Lookup finds a node by name anywhere in the pool.
func (p *Pool) Lookup(name string) (*Node, bool) {
	n, ok := p.all[name]
	return n, ok
}

// Allocated returns the allocated nodes sorted by name.
func (p *Pool) Allocated() []*Node {
	out := make([]*Node, 0, len(p.allocated))
	for _, n := range p.allocated {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Nodes returns every node known to the pool sorted by name.
func (p *Pool) Nodes() []*Node {
	out := make([]*Node, 0, len(p.all))
	for _, n := range p.all {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
