package legacy

import (
	"fmt"

	"jade/internal/cluster"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/trace"
)

// Apache simulates an Apache 1.3/mod_jk web server. At startup it parses
// its httpd.conf for the Listen port and its worker.properties for the AJP
// routes to Tomcat instances; it can only forward dynamic requests to
// workers that appear in that file, which is how the paper's qualitative
// scenario (Fig. 4) rebinds Apache1 from Tomcat1 to Tomcat2 by rewriting
// worker.properties between a stop and a start.
type Apache struct {
	process
	confPath    string
	workersPath string

	// Resolved at startup from worker.properties.
	routes []route
	rrNext int

	pages FreeList[page]
}

type route struct {
	name   string
	addr   string
	target HTTPHandler
}

// ApacheOptions tunes an Apache instance.
type ApacheOptions struct {
	MemoryMB   float64
	StartDelay float64
	StopDelay  float64
}

// DefaultApacheOptions mirrors a lightweight Apache footprint.
func DefaultApacheOptions() ApacheOptions {
	return ApacheOptions{MemoryMB: 64, StartDelay: 2, StopDelay: 1}
}

// NewApache creates an Apache process on node. Its configuration lives at
// <node>/<name>/httpd.conf and <node>/<name>/worker.properties in the
// environment's FS.
func NewApache(env *Env, name string, node *cluster.Node, opts ApacheOptions) *Apache {
	a := &Apache{
		process: process{
			env:        env,
			name:       name,
			node:       node,
			memMB:      opts.MemoryMB,
			startDelay: opts.StartDelay,
			stopDelay:  opts.StopDelay,
		},
		confPath:    node.Name() + "/" + name + "/httpd.conf",
		workersPath: node.Name() + "/" + name + "/worker.properties",
	}
	a.obs = obs.NewTierMetrics(env.Obs, "web", name)
	a.watchNode()
	return a
}

// ConfPath returns the httpd.conf path in the workspace FS.
func (a *Apache) ConfPath() string { return a.confPath }

// WorkersPath returns the worker.properties path in the workspace FS.
func (a *Apache) WorkersPath() string { return a.workersPath }

// Start boots the server: it parses httpd.conf and worker.properties,
// resolves every declared AJP worker on the network and begins listening.
func (a *Apache) Start(done func(error)) {
	a.begin(func() error {
		raw, err := a.env.FS.ReadFile(a.confPath)
		if err != nil {
			return fmt.Errorf("apache %s: reading httpd.conf: %w", a.name, err)
		}
		conf, err := ParseHTTPD(raw)
		if err != nil {
			return fmt.Errorf("apache %s: %w", a.name, err)
		}
		port, err := conf.GetInt("Listen")
		if err != nil {
			return fmt.Errorf("apache %s: httpd.conf: %w", a.name, err)
		}
		a.routes = nil
		a.rrNext = 0
		if wraw, err := a.env.FS.ReadFile(a.workersPath); err == nil {
			workers, err := ParseWorkers(wraw)
			if err != nil {
				return fmt.Errorf("apache %s: %w", a.name, err)
			}
			for _, w := range workers.Workers() {
				if w.Type == "lb" {
					continue // balancer entries reference plain workers
				}
				addr := fmt.Sprintf("%s:%d", w.Host, w.Port)
				target, err := a.env.Net.LookupHTTP(addr)
				if err != nil {
					return fmt.Errorf("apache %s: worker %s: %w", a.name, w.Name, err)
				}
				a.routes = append(a.routes, route{name: w.Name, addr: addr, target: target})
			}
		}
		return a.listen(fmt.Sprintf("%s:%d", a.node.Name(), port), a)
	}, done)
}

// Stop shuts the server down (the paper's "apachectl stop").
func (a *Apache) Stop(done func(error)) { a.end(done) }

// HandleHTTP serves a request: static documents cost web-tier CPU only;
// dynamic documents additionally forward to an AJP worker (round-robin
// across resolved workers, as mod_jk's lb worker does).
func (a *Apache) HandleHTTP(req *WebRequest, done netsim.Reply) {
	if a.state != Running {
		a.obs.Drop()
		a.failed++
		done.Reply(fmt.Errorf("%w: apache %s is %s", ErrNotRunning, a.name, a.state))
		return
	}
	p := a.pages.Get()
	p.a, p.req, p.done, p.parent = a, req, done, req.TraceSpan
	// The "web" span brackets local queue wait + service plus the AJP
	// forward, which travels under it.
	p.Begin(a.env.Eng.Now(), a.obs, a.env.Trace, p.parent, "web", a.name)
	req.TraceSpan = p.Span
	a.node.Run(&p.Job, req.WebCost, p)
}

// page is the record of one request in an Apache: what was asked, the hop
// on the web node (the record is its job's continuation, and the AJP
// worker's reply) and the span the request arrived with, restored when it
// leaves.
type page struct {
	Hop
	a      *Apache
	req    *WebRequest
	done   netsim.Reply
	parent trace.ID
}

// JobDone: the web tier's CPU work is done; answer a static page, hand a
// dynamic one to the next AJP worker.
func (p *page) JobDone() {
	a := p.a
	p.Ran(a.env.Eng.Now())
	if p.req.Static {
		a.served++
		p.finish(nil)
		return
	}
	if len(a.routes) == 0 {
		a.failed++
		p.finish(fmt.Errorf("%w: apache %s has no AJP worker", ErrNoBackend, a.name))
		return
	}
	r := a.routes[a.rrNext%len(a.routes)]
	a.rrNext++
	a.env.Net.ForwardHTTP(a.node.Name(), "app", r.target, p.req, p)
}

// Reply takes the AJP worker's answer.
func (p *page) Reply(err error) {
	if err != nil {
		p.a.failed++
	} else {
		p.a.served++
	}
	p.finish(err)
}

// JobFailed: the web node crashed under the request.
func (p *page) JobFailed() {
	p.a.failed++
	p.finish(fmt.Errorf("%w: apache %s", ErrServerFailed, p.a.name))
}

// finish ends the hop, puts the record back (see Hop) and answers the
// caller.
func (p *page) finish(err error) {
	a, done := p.a, p.done
	p.req.TraceSpan = p.parent
	p.End(a.obs, a.env.Trace, p.req.WebCost/a.node.Config().CPUCapacity, err)
	a.pages.Put(p)
	done.Reply(err)
}
