package core

import (
	"fmt"
	"sort"

	"jade/internal/adl"
	"jade/internal/cluster"
	"jade/internal/fractal"
	"jade/internal/legacy"
	"jade/internal/trace"
)

// Deployment is a managed application deployed from an ADL description:
// a component architecture (one composite per ADL composite) plus the
// node assignments behind it.
type Deployment struct {
	Def   *adl.Definition
	Root  *fractal.Component
	comps map[string]*fractal.Component
	nodes map[string]*cluster.Node
}

// Component finds a deployed component by name.
func (d *Deployment) Component(name string) (*fractal.Component, error) {
	c, ok := d.comps[name]
	if !ok {
		return nil, fmt.Errorf("jade: no component %q in deployment %s", name, d.Def.Name)
	}
	return c, nil
}

// MustComponent is Component for statically known names.
func (d *Deployment) MustComponent(name string) *fractal.Component {
	c, err := d.Component(name)
	if err != nil {
		panic(err)
	}
	return c
}

// ComponentNames returns deployed component names, sorted.
func (d *Deployment) ComponentNames() []string {
	out := make([]string, 0, len(d.comps))
	for n := range d.comps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NodeOf returns the node hosting a component.
func (d *Deployment) NodeOf(name string) (*cluster.Node, error) {
	n, ok := d.nodes[name]
	if !ok {
		return nil, fmt.Errorf("jade: no node recorded for %q", name)
	}
	return n, nil
}

// Describe renders the management layer's view of the deployment.
func (d *Deployment) Describe() string { return d.Root.Describe() }

// FrontEnd returns the deployment's HTTP entry point: the L4 switch if
// one is deployed, else the PLB balancer, else the first Apache server
// (lowest name within each kind, for determinism).
func (d *Deployment) FrontEnd() (legacy.HTTPHandler, error) {
	for _, kind := range []string{"l4", "plb", "apache"} {
		for _, name := range d.ComponentNames() {
			w, ok := d.comps[name].Content().(Wrapper)
			if !ok || w.Kind() != kind {
				continue
			}
			if ep, ok := w.(httpEndpoint); ok {
				return ep.HTTPEndpoint(), nil
			}
		}
	}
	return nil, fmt.Errorf("jade: deployment %s has no HTTP front end", d.Def.Name)
}

// ranked returns the component names in start order — servers register
// their listeners before their clients resolve them — or, reversed, in stop
// order (front end first); by name within a rank.
func (d *Deployment) ranked(reversed bool) []string {
	names := d.ComponentNames()
	rank := func(name string) int { return startRank(d.comps[name].Content().(Wrapper).Kind()) }
	sort.SliceStable(names, func(i, j int) bool {
		if reversed {
			i, j = j, i
		}
		return rank(names[i]) < rank(names[j])
	})
	return names
}

// place puts one component on a node already holding its software: the
// wrapper factory creates it, the node is charged the management footprint,
// ready configures the component (and may take simulated time), then it
// enters its composite and the deployment's records. On failure nothing is
// recorded; the caller still owns the node and gives it back through
// release, which takes the footprint off again.
func (p *Platform) place(d *Deployment, parent *fractal.Component, kind, name string, node *cluster.Node,
	ready func(*fractal.Component, func(error)), done func(*fractal.Component, error)) {
	comp, err := p.registry[kind](p, name, node)
	if err != nil {
		done(nil, fmt.Errorf("jade: creating %s: %w", name, err))
		return
	}
	p.attachManagement(node)
	ready(comp, func(err error) {
		if err == nil {
			err = parent.Add(comp)
		}
		if err != nil {
			done(nil, err)
			return
		}
		d.comps[name], d.nodes[name] = comp, node
		done(comp, nil)
	})
}

// terminator is implemented by wrappers whose legacy process can be
// hard-killed without a graceful stop (STONITH).
type terminator interface {
	TerminateManaged()
}

// withdraw is place's inverse: the component leaves the architecture and
// the records. A legacy process still alive on a healthy node is killed,
// not stopped — callers wanting a graceful stop run StopComponent first.
func (d *Deployment) withdraw(name string) (*cluster.Node, error) {
	comp, node := d.comps[name], d.nodes[name]
	if tw, ok := comp.Content().(terminator); ok && !node.Failed() {
		tw.TerminateManaged()
	}
	if comp.State() == fractal.Started {
		if err := comp.Stop(); err != nil {
			return nil, err
		}
	}
	if parent := comp.Parent(); parent != nil {
		if _, err := parent.Remove(name); err != nil {
			return nil, err
		}
	}
	delete(d.comps, name)
	delete(d.nodes, name)
	return node, nil
}

// retire withdraws one component and gives its node back.
func (p *Platform) retire(d *Deployment, name string) error {
	node, err := d.withdraw(name)
	if err == nil {
		p.release(node)
	}
	return err
}

// release returns a node to the pool, off the management footprint.
func (p *Platform) release(n *cluster.Node) {
	p.detachManagement(n)
	_ = p.Pool.Release(n)
}

// teardown stops every started component, front end first, then retires
// them all; whatever does not stop is killed by its retirement.
func (p *Platform) teardown(d *Deployment, done func(error)) {
	names := d.ranked(true)
	var stopNext func(i int)
	stopNext = func(i int) {
		if i >= len(names) {
			var first error
			for _, name := range names {
				if err := p.retire(d, name); err != nil && first == nil {
					first = err
				}
			}
			done(first)
			return
		}
		c := d.comps[names[i]]
		if c.State() != fractal.Started {
			stopNext(i + 1)
			return
		}
		p.StopComponent(c, func(error) { stopNext(i + 1) })
	}
	stopNext(0)
}

// abortDeployment tears down a partially completed deployment, so a failed
// Deploy leaks nothing: no node, no listener, no management footprint.
func (p *Platform) abortDeployment(d *Deployment, cause error, finish func(*Deployment, error)) {
	p.teardown(d, func(error) {
		p.logf("deploy: %s aborted: %v", d.Def.Name, cause)
		finish(nil, cause)
	})
}

// Deploy interprets an ADL description (§3.3): it validates the
// architecture, allocates a node per component through the Cluster
// Manager, installs the software through the Software Installation
// Service, instantiates and configures the wrappers, applies the
// bindings, and starts everything in dependency order. The whole
// interpretation runs in simulated time; done fires when the application
// is up.
func (p *Platform) Deploy(def *adl.Definition, done func(*Deployment, error)) {
	span := p.tracer.Begin(0, "deploy", def.Name)
	finish := func(d *Deployment, err error) {
		p.tracer.End(span, trace.Outcome(err))
		if done != nil {
			done(d, err)
		}
	}
	if err := def.Validate(p.wrapperSet()); err != nil {
		finish(nil, err)
		return
	}
	root, err := fractal.NewComposite(def.Name)
	if err != nil {
		finish(nil, err)
		return
	}
	d := &Deployment{
		Def:   def,
		Root:  root,
		comps: make(map[string]*fractal.Component),
		nodes: make(map[string]*cluster.Node),
	}
	// Pre-create the composite hierarchy.
	composites := map[string]*fractal.Component{"": root}
	for _, path := range def.CompositePaths() {
		parentPath, name := splitPath(path)
		comp, err := fractal.NewComposite(name)
		if err != nil {
			finish(nil, err)
			return
		}
		if err := composites[parentPath].Add(comp); err != nil {
			finish(nil, err)
			return
		}
		composites[path] = comp
	}

	placed := def.AllComponents()
	var deployNext func(i int)
	deployNext = func(i int) {
		if i >= len(placed) {
			p.applyBindingsAndStart(d, finish)
			return
		}
		pc := placed[i]
		var node *cluster.Node
		var err error
		if pc.Node != "" {
			node, err = p.Pool.AllocateNamed(pc.Node)
		} else {
			node, err = p.Pool.Allocate()
		}
		if err != nil {
			p.abortDeployment(d, fmt.Errorf("jade: allocating node for %s: %w", pc.Name, err), finish)
			return
		}
		// From here on a failure gives the node back before aborting.
		fail := func(err error) {
			p.release(node)
			p.abortDeployment(d, err, finish)
		}
		p.SIS.Install(pc.Wrapper, node, func(ierr error) {
			if ierr != nil {
				fail(fmt.Errorf("jade: installing %s: %w", pc.Name, ierr))
				return
			}
			configure := func(comp *fractal.Component, next func(error)) {
				for _, a := range pc.Attributes {
					if err := comp.SetAttribute(a.Name, a.Value); err != nil {
						next(fmt.Errorf("jade: configuring %s: %w", pc.Name, err))
						return
					}
				}
				next(nil)
			}
			p.place(d, composites[pc.CompositePath], pc.Wrapper, pc.Name, node, configure, func(_ *fractal.Component, err error) {
				if err != nil {
					fail(err)
					return
				}
				p.tracer.EmitIn(span, "deploy.place", pc.Name,
					trace.F("wrapper", pc.Wrapper), trace.F("node", node.Name()))
				p.logf("deploy: %s (%s) on %s", pc.Name, pc.Wrapper, node.Name())
				deployNext(i + 1)
			})
		})
	}
	deployNext(0)
}

func splitPath(path string) (parent, name string) {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i], path[i+1:]
		}
	}
	return "", path
}

// bind applies one ADL binding declaration.
func (d *Deployment) bind(b adl.BindingDecl) error {
	clientName, clientItf, err := adl.SplitRef(b.Client)
	if err != nil {
		return err
	}
	serverName, serverItf, err := adl.SplitRef(b.Server)
	if err != nil {
		return err
	}
	client, err := d.Component(clientName)
	if err != nil {
		return err
	}
	server, err := d.Component(serverName)
	if err != nil {
		return err
	}
	target, err := server.Interface(serverItf)
	if err != nil {
		return err
	}
	if err := client.Bind(clientItf, target); err != nil {
		return fmt.Errorf("jade: binding %s to %s: %w", b.Client, b.Server, err)
	}
	return nil
}

// applyBindingsAndStart wires the architecture and boots it bottom-up.
func (p *Platform) applyBindingsAndStart(d *Deployment, finish func(*Deployment, error)) {
	for _, b := range d.Def.Bindings {
		if err := d.bind(b); err != nil {
			p.abortDeployment(d, err, finish)
			return
		}
	}

	// Start order: db tier first, front end last.
	names := d.ranked(false)
	var startNext func(i int)
	startNext = func(i int) {
		if i >= len(names) {
			// Mark the composite hierarchy started (children already
			// running are left untouched).
			if err := d.Root.Start(); err != nil {
				finish(nil, err)
				return
			}
			p.logf("deploy: %s is up (%d components)", d.Def.Name, len(names))
			p.reconfigured("deploy:" + d.Def.Name)
			finish(d, nil)
			return
		}
		c := d.comps[names[i]]
		p.StartComponent(c, func(err error) {
			if err != nil {
				p.abortDeployment(d, err, finish)
				return
			}
			startNext(i + 1)
		})
	}
	startNext(0)
}
