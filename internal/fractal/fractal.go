// Package fractal implements the Fractal component model (§3.1 of the
// paper; Bruneton, Coupaye, Stefani — WCOP'02) as used by Jade: run-time
// components with named server/client interfaces, primitive bindings
// between interfaces, composite components encapsulating subcomponents,
// and per-component controllers (attribute, binding, content, lifecycle,
// name) that give management programs introspection and reconfiguration
// over a running architecture.
//
// A component's *content* is the object it encapsulates — for Jade, a
// wrapper around a legacy server. Content objects may implement the
// optional hook interfaces (LifecycleHandler, AttributeHandler,
// BindHandler) to reflect control operations onto the legacy layer; a
// component with no content is a pure architectural node.
package fractal

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Errors returned by the component model.
var (
	ErrNoSuchInterface  = errors.New("fractal: no such interface")
	ErrNoSuchAttribute  = errors.New("fractal: no such attribute")
	ErrNoSuchChild      = errors.New("fractal: no such subcomponent")
	ErrAlreadyBound     = errors.New("fractal: interface already bound")
	ErrNotBound         = errors.New("fractal: interface not bound")
	ErrRoleMismatch     = errors.New("fractal: interface role mismatch")
	ErrSignatureClash   = errors.New("fractal: interface signatures differ")
	ErrNotStopped       = errors.New("fractal: component must be stopped")
	ErrNotStarted       = errors.New("fractal: component is not started")
	ErrAlreadyStarted   = errors.New("fractal: component already started")
	ErrMandatoryUnbound = errors.New("fractal: mandatory client interface unbound")
	ErrNotComposite     = errors.New("fractal: not a composite component")
	ErrDuplicateChild   = errors.New("fractal: duplicate subcomponent name")
	ErrHasParent        = errors.New("fractal: component already has a parent")
	ErrDuplicateItf     = errors.New("fractal: duplicate interface name")
)

// Role distinguishes server (incoming) from client (outgoing) interfaces.
type Role int

// Interface roles.
const (
	Server Role = iota
	Client
)

func (r Role) String() string {
	if r == Server {
		return "server"
	}
	return "client"
}

// Contingency marks whether a client interface must be bound for the
// component to start.
type Contingency int

// Contingency values.
const (
	Mandatory Contingency = iota
	Optional
)

// State is a component lifecycle state.
type State int

// Lifecycle states.
const (
	Stopped State = iota
	Started
)

func (s State) String() string {
	if s == Started {
		return "STARTED"
	}
	return "STOPPED"
}

// Interface is an access point to a component.
type Interface struct {
	name      string
	signature string
	role      Role
	cont      Contingency
	// collection interfaces accept any number of simultaneous bindings
	// (e.g. a load balancer's "workers" client interface).
	collection bool
	// dynamic client interfaces may be re-bound while the component is
	// started (the load balancers support live reconfiguration; Apache's
	// AJP binding does not — it requires a stop/edit/start cycle).
	dynamic bool
	owner   *Component
}

// Name returns the interface name.
func (i *Interface) Name() string { return i.name }

// Role returns server or client.
func (i *Interface) Role() Role { return i.role }

// Owner returns the component exposing this interface.
func (i *Interface) Owner() *Component { return i.owner }

// String renders "component.interface".
func (i *Interface) String() string { return i.owner.Name() + "." + i.name }

// ItfSpec declares one interface at component creation.
type ItfSpec struct {
	Name        string
	Signature   string
	Role        Role
	Contingency Contingency
	Collection  bool
	Dynamic     bool
}

// Binding is one primitive binding between a client and a server
// interface.
type Binding struct {
	ClientItf *Interface
	ServerItf *Interface
}

// Content hook interfaces — implemented by wrappers to reflect component
// operations onto the managed legacy software.

// LifecycleHandler receives start/stop operations.
type LifecycleHandler interface {
	OnStart(c *Component) error
	OnStop(c *Component) error
}

// AttributeHandler receives attribute writes (after validation).
type AttributeHandler interface {
	OnSetAttribute(c *Component, name, value string) error
}

// BindHandler receives bind/unbind operations on client interfaces.
type BindHandler interface {
	OnBind(c *Component, itf string, server *Interface) error
	OnUnbind(c *Component, itf string, server *Interface) error
}

// Component is a Fractal component: primitive (content, no children) or
// composite (children).
type Component struct {
	name      string
	composite bool
	content   any
	itfs      map[string]*Interface
	itfOrder  []string
	bindings  map[string][]*Binding
	attrs     map[string]string
	attrOrder []string
	parent    *Component
	children  map[string]*Component
	childSeq  []string
	state     State
}

// NewPrimitive creates a primitive component encapsulating content
// (possibly nil) with the declared interfaces.
func NewPrimitive(name string, content any, itfs ...ItfSpec) (*Component, error) {
	return newComponent(name, false, content, itfs)
}

// NewComposite creates a composite component with the declared interfaces.
func NewComposite(name string, itfs ...ItfSpec) (*Component, error) {
	return newComponent(name, true, nil, itfs)
}

func newComponent(name string, composite bool, content any, itfs []ItfSpec) (*Component, error) {
	if name == "" {
		return nil, errors.New("fractal: component with empty name")
	}
	c := &Component{
		name:      name,
		composite: composite,
		content:   content,
		itfs:      make(map[string]*Interface),
		bindings:  make(map[string][]*Binding),
		attrs:     make(map[string]string),
		children:  make(map[string]*Component),
	}
	for _, spec := range itfs {
		if spec.Name == "" {
			return nil, fmt.Errorf("fractal: component %s: interface with empty name", name)
		}
		if _, dup := c.itfs[spec.Name]; dup {
			return nil, fmt.Errorf("%w: %s.%s", ErrDuplicateItf, name, spec.Name)
		}
		c.itfs[spec.Name] = &Interface{
			name:       spec.Name,
			signature:  spec.Signature,
			role:       spec.Role,
			cont:       spec.Contingency,
			collection: spec.Collection,
			dynamic:    spec.Dynamic,
			owner:      c,
		}
		c.itfOrder = append(c.itfOrder, spec.Name)
	}
	return c, nil
}

// --- Name controller ---

// Name returns the component name.
func (c *Component) Name() string { return c.name }

// Path returns the slash-separated path from the root composite.
func (c *Component) Path() string {
	if c.parent == nil {
		return c.name
	}
	return c.parent.Path() + "/" + c.name
}

// Composite reports whether the component is composite.
func (c *Component) Composite() bool { return c.composite }

// Content returns the encapsulated content object.
func (c *Component) Content() any { return c.content }

// --- Interface introspection ---

// Interface returns the named interface.
func (c *Component) Interface(name string) (*Interface, error) {
	itf, ok := c.itfs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchInterface, c.name, name)
	}
	return itf, nil
}

// MustInterface returns the named interface or panics; for wiring code
// whose interface names are static.
func (c *Component) MustInterface(name string) *Interface {
	itf, err := c.Interface(name)
	if err != nil {
		panic(err)
	}
	return itf
}

// Interfaces returns the component's interfaces in declaration order.
func (c *Component) Interfaces() []*Interface {
	out := make([]*Interface, 0, len(c.itfOrder))
	for _, n := range c.itfOrder {
		out = append(out, c.itfs[n])
	}
	return out
}

// --- Attribute controller ---

// SetAttribute sets a configurable property, invoking the content's
// AttributeHandler so the change is reflected into the legacy layer.
func (c *Component) SetAttribute(name, value string) error {
	if name == "" {
		return errors.New("fractal: empty attribute name")
	}
	if h, ok := c.content.(AttributeHandler); ok {
		if err := h.OnSetAttribute(c, name, value); err != nil {
			return err
		}
	}
	if _, exists := c.attrs[name]; !exists {
		c.attrOrder = append(c.attrOrder, name)
	}
	c.attrs[name] = value
	return nil
}

// Attribute returns an attribute value.
func (c *Component) Attribute(name string) (string, error) {
	v, ok := c.attrs[name]
	if !ok {
		return "", fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, c.name, name)
	}
	return v, nil
}

// AttributeOr returns the attribute or a default when unset.
func (c *Component) AttributeOr(name, def string) string {
	if v, ok := c.attrs[name]; ok {
		return v
	}
	return def
}

// Attributes returns attribute names in first-set order.
func (c *Component) Attributes() []string {
	return append([]string(nil), c.attrOrder...)
}

// --- Binding controller ---

// Bind establishes a primitive binding from this component's client
// interface to a server interface of another component. Non-dynamic
// interfaces require the component to be stopped.
func (c *Component) Bind(clientItf string, server *Interface) error {
	itf, err := c.Interface(clientItf)
	if err != nil {
		return err
	}
	if itf.role != Client {
		return fmt.Errorf("%w: %s is a server interface", ErrRoleMismatch, itf)
	}
	if server == nil {
		return fmt.Errorf("fractal: binding %s to nil interface", itf)
	}
	if server.role != Server {
		return fmt.Errorf("%w: %s is not a server interface", ErrRoleMismatch, server)
	}
	if itf.signature != server.signature {
		return fmt.Errorf("%w: %s(%s) vs %s(%s)", ErrSignatureClash,
			itf, itf.signature, server, server.signature)
	}
	if !itf.dynamic && c.state == Started {
		return fmt.Errorf("%w: bind %s while started", ErrNotStopped, itf)
	}
	existing := c.bindings[clientItf]
	if !itf.collection && len(existing) > 0 {
		return fmt.Errorf("%w: %s", ErrAlreadyBound, itf)
	}
	for _, b := range existing {
		if b.ServerItf == server {
			return fmt.Errorf("%w: %s to %s", ErrAlreadyBound, itf, server)
		}
	}
	if h, ok := c.content.(BindHandler); ok {
		if err := h.OnBind(c, clientItf, server); err != nil {
			return err
		}
	}
	c.bindings[clientItf] = append(existing, &Binding{ClientItf: itf, ServerItf: server})
	return nil
}

// Unbind removes the binding of a client interface. For collection
// interfaces, server selects which binding; for singleton interfaces a
// nil server removes the only binding.
func (c *Component) Unbind(clientItf string, server *Interface) error {
	itf, err := c.Interface(clientItf)
	if err != nil {
		return err
	}
	if itf.role != Client {
		return fmt.Errorf("%w: %s is a server interface", ErrRoleMismatch, itf)
	}
	if !itf.dynamic && c.state == Started {
		return fmt.Errorf("%w: unbind %s while started", ErrNotStopped, itf)
	}
	existing := c.bindings[clientItf]
	if len(existing) == 0 {
		return fmt.Errorf("%w: %s", ErrNotBound, itf)
	}
	idx := -1
	if server == nil {
		if len(existing) > 1 {
			return fmt.Errorf("fractal: %s has %d bindings; specify which to unbind", itf, len(existing))
		}
		idx = 0
	} else {
		for i, b := range existing {
			if b.ServerItf == server {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("%w: %s to %s", ErrNotBound, itf, server)
		}
	}
	target := existing[idx]
	if h, ok := c.content.(BindHandler); ok {
		if err := h.OnUnbind(c, clientItf, target.ServerItf); err != nil {
			return err
		}
	}
	c.bindings[clientItf] = append(existing[:idx], existing[idx+1:]...)
	return nil
}

// Bindings returns the current bindings of a client interface.
func (c *Component) Bindings(clientItf string) []*Binding {
	return append([]*Binding(nil), c.bindings[clientItf]...)
}

// --- Content controller (composites) ---

// Add inserts a subcomponent into a composite.
func (c *Component) Add(child *Component) error {
	if !c.composite {
		return fmt.Errorf("%w: %s", ErrNotComposite, c.name)
	}
	if child.parent != nil {
		return fmt.Errorf("%w: %s is inside %s", ErrHasParent, child.name, child.parent.name)
	}
	if _, dup := c.children[child.name]; dup {
		return fmt.Errorf("%w: %s in %s", ErrDuplicateChild, child.name, c.name)
	}
	c.children[child.name] = child
	c.childSeq = append(c.childSeq, child.name)
	child.parent = c
	return nil
}

// Remove extracts a subcomponent from a composite. The child must be
// stopped.
func (c *Component) Remove(name string) (*Component, error) {
	if !c.composite {
		return nil, fmt.Errorf("%w: %s", ErrNotComposite, c.name)
	}
	child, ok := c.children[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s in %s", ErrNoSuchChild, name, c.name)
	}
	if child.state == Started {
		return nil, fmt.Errorf("%w: remove %s while started", ErrNotStopped, name)
	}
	delete(c.children, name)
	for i, n := range c.childSeq {
		if n == name {
			c.childSeq = append(c.childSeq[:i], c.childSeq[i+1:]...)
			break
		}
	}
	child.parent = nil
	return child, nil
}

// Child returns a direct subcomponent by name.
func (c *Component) Child(name string) (*Component, error) {
	child, ok := c.children[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s in %s", ErrNoSuchChild, name, c.name)
	}
	return child, nil
}

// Children returns direct subcomponents in insertion order.
func (c *Component) Children() []*Component {
	out := make([]*Component, 0, len(c.childSeq))
	for _, n := range c.childSeq {
		out = append(out, c.children[n])
	}
	return out
}

// Parent returns the enclosing composite, or nil at the root.
func (c *Component) Parent() *Component { return c.parent }

// Visit walks the component tree depth-first (this component included).
func (c *Component) Visit(fn func(*Component)) {
	fn(c)
	for _, name := range c.childSeq {
		c.children[name].Visit(fn)
	}
}

// --- Lifecycle controller ---

// State returns the lifecycle state.
func (c *Component) State() State { return c.state }

// Start starts the component: mandatory client interfaces must be bound;
// the content's LifecycleHandler runs first; for composites, children
// start in insertion order afterwards. On a child failure, already
// started children are stopped again (best effort).
func (c *Component) Start() error {
	if c.state == Started {
		return fmt.Errorf("%w: %s", ErrAlreadyStarted, c.name)
	}
	for _, n := range c.itfOrder {
		itf := c.itfs[n]
		if itf.role == Client && itf.cont == Mandatory && len(c.bindings[n]) == 0 {
			return fmt.Errorf("%w: %s", ErrMandatoryUnbound, itf)
		}
	}
	if h, ok := c.content.(LifecycleHandler); ok {
		if err := h.OnStart(c); err != nil {
			return fmt.Errorf("fractal: starting %s: %w", c.name, err)
		}
	}
	var started []*Component
	for _, n := range c.childSeq {
		child := c.children[n]
		if child.state == Started {
			continue
		}
		if err := child.Start(); err != nil {
			for i := len(started) - 1; i >= 0; i-- {
				_ = started[i].Stop()
			}
			if h, ok := c.content.(LifecycleHandler); ok {
				_ = h.OnStop(c)
			}
			return fmt.Errorf("fractal: starting %s: %w", c.name, err)
		}
		started = append(started, child)
	}
	c.state = Started
	return nil
}

// Stop stops the component: children stop in reverse insertion order,
// then the content's LifecycleHandler runs.
func (c *Component) Stop() error {
	if c.state != Started {
		return fmt.Errorf("%w: %s", ErrNotStarted, c.name)
	}
	for i := len(c.childSeq) - 1; i >= 0; i-- {
		child := c.children[c.childSeq[i]]
		if child.state == Started {
			if err := child.Stop(); err != nil {
				return fmt.Errorf("fractal: stopping %s: %w", c.name, err)
			}
		}
	}
	if h, ok := c.content.(LifecycleHandler); ok {
		if err := h.OnStop(c); err != nil {
			return fmt.Errorf("fractal: stopping %s: %w", c.name, err)
		}
	}
	c.state = Stopped
	return nil
}

// --- Introspection rendering ---

// Describe renders the component subtree with interfaces, attributes and
// bindings — the uniform management view an administration program reads.
func (c *Component) Describe() string {
	var b strings.Builder
	c.describe(&b, 0)
	return b.String()
}

func (c *Component) describe(b *strings.Builder, depth int) {
	pad := strings.Repeat("  ", depth)
	kind := "primitive"
	if c.composite {
		kind = "composite"
	}
	fmt.Fprintf(b, "%s%s [%s, %s]\n", pad, c.name, kind, c.state)
	attrs := append([]string(nil), c.attrOrder...)
	sort.Strings(attrs)
	for _, a := range attrs {
		fmt.Fprintf(b, "%s  @%s = %s\n", pad, a, c.attrs[a])
	}
	for _, n := range c.itfOrder {
		itf := c.itfs[n]
		if itf.role == Client {
			bs := c.bindings[n]
			if len(bs) == 0 {
				fmt.Fprintf(b, "%s  %s (client %s) -> (unbound)\n", pad, n, itf.signature)
			}
			for _, bd := range bs {
				fmt.Fprintf(b, "%s  %s (client %s) -> %s\n", pad, n, itf.signature, bd.ServerItf)
			}
		} else {
			fmt.Fprintf(b, "%s  %s (server %s)\n", pad, n, itf.signature)
		}
	}
	for _, n := range c.childSeq {
		c.children[n].describe(b, depth+1)
	}
}
