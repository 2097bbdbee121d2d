package core

import (
	"errors"
	"fmt"
	"strconv"

	"jade/internal/cjdbc"
	"jade/internal/cluster"
	"jade/internal/config"
	"jade/internal/fractal"
	"jade/internal/legacy"
	"jade/internal/obs"
	"jade/internal/plb"
	"jade/internal/selector"
	"jade/internal/sim"
)

// Errors returned by wrappers.
var (
	ErrBadAttribute    = errors.New("jade: invalid attribute value")
	ErrAttributeFrozen = errors.New("jade: attribute cannot change while running")
	ErrNotSynced       = errors.New("jade: backend must be synchronized before binding (use the db tier actuator)")
)

// Interface signatures used across the management layer.
const (
	SigHTTP = "http"
	SigAJP  = "ajp13"
	SigJDBC = "jdbc"
)

// Wrapper is the content contract of every Jade-managed component: the
// synchronous Fractal hooks reflect attribute and binding changes into
// legacy configuration files; StartManaged/StopManaged run the legacy
// start/stop scripts, which take (simulated) time.
type Wrapper interface {
	Kind() string
	Node() *cluster.Node
	StartManaged(done func(error))
	StopManaged(done func(error))
}

// httpEndpoint is implemented by wrappers whose legacy software serves
// HTTP, so balancers can obtain the request target.
type httpEndpoint interface {
	HTTPEndpoint() legacy.HTTPHandler
}

// WrapperFactory builds a wrapped component on a node.
type WrapperFactory func(p *Platform, name string, node *cluster.Node) (*fractal.Component, error)

// startRank orders component startup so that servers register their
// listeners before their clients resolve them (db → db balancer → app →
// app balancer → web → web switch).
func startRank(kind string) int {
	switch kind {
	case "mysql":
		return 0
	case "cjdbc":
		return 1
	case "tomcat":
		return 2
	case "plb":
		return 3
	case "apache":
		return 4
	case "l4":
		return 5
	}
	return 9
}

func registerStandardWrappers(p *Platform) {
	p.RegisterWrapper("apache", NewApacheComponent)
	p.RegisterWrapper("tomcat", NewTomcatComponent)
	p.RegisterWrapper("mysql", NewMySQLComponent)
	p.RegisterWrapper("cjdbc", NewCJDBCComponent)
	p.RegisterWrapper("plb", NewPLBComponent)
	p.RegisterWrapper("l4", NewL4Component)
}

// targetWrapper resolves the wrapper behind a server interface.
func targetWrapper(server *fractal.Interface) (Wrapper, error) {
	w, ok := server.Owner().Content().(Wrapper)
	if !ok {
		return nil, fmt.Errorf("jade: %s is not a managed component", server.Owner().Name())
	}
	return w, nil
}

// parsePort parses a port attribute value; what names the attribute in the
// error ("apache port").
func parsePort(value, what string) (int, error) {
	port, err := strconv.Atoi(value)
	if err != nil || port <= 0 {
		return 0, fmt.Errorf("%w: %s %q", ErrBadAttribute, what, value)
	}
	return port, nil
}

// editConfig is how a wrapper reflects a change into a legacy
// configuration file: read it, parse it, edit the parsed form, render it
// and write it back.
func editConfig[T any](fs *config.MemFS, path string, parse func([]byte) (T, error), render func(T) (string, error), edit func(T)) error {
	raw, err := fs.ReadFile(path)
	if err != nil {
		return err
	}
	conf, err := parse(raw)
	if err != nil {
		return err
	}
	edit(conf)
	text, err := render(conf)
	if err != nil {
		return err
	}
	return fs.WriteFile(path, []byte(text))
}

// rendered is editConfig's render for the formats whose Render cannot fail.
func rendered[T interface{ Render() string }](conf T) (string, error) { return conf.Render(), nil }

// --- Apache wrapper ---

// ApacheWrapper manages an Apache web server. Attribute "port" is
// reflected into httpd.conf's Listen directive; bindings of the "ajp"
// client interface are reflected into worker.properties (§3.2's example
// wrapper); the lifecycle controller runs the Apache start/stop scripts.
type ApacheWrapper struct {
	p    *Platform
	srv  *legacy.Apache
	comp *fractal.Component
}

// NewApacheComponent is the WrapperFactory for Apache.
func NewApacheComponent(p *Platform, name string, node *cluster.Node) (*fractal.Component, error) {
	w := &ApacheWrapper{p: p, srv: legacy.NewApache(p.Env(), name, node, legacy.DefaultApacheOptions())}
	comp, err := fractal.NewPrimitive(name, w,
		fractal.ItfSpec{Name: "http", Signature: SigHTTP, Role: fractal.Server},
		fractal.ItfSpec{Name: "ajp", Signature: SigAJP, Role: fractal.Client,
			Contingency: fractal.Optional, Collection: true},
	)
	if err != nil {
		return nil, err
	}
	w.comp = comp
	hc := config.NewHTTPDConf()
	hc.Set("ServerName", node.Name())
	hc.Set("Listen", "80")
	if err := p.FS.WriteFile(w.srv.ConfPath(), []byte(hc.Render())); err != nil {
		return nil, err
	}
	if err := p.FS.WriteFile(w.srv.WorkersPath(), []byte(config.NewWorkerProperties().Render())); err != nil {
		return nil, err
	}
	if err := comp.SetAttribute("port", "80"); err != nil {
		return nil, err
	}
	return comp, nil
}

// Kind implements Wrapper.
func (w *ApacheWrapper) Kind() string { return "apache" }

// Node implements Wrapper.
func (w *ApacheWrapper) Node() *cluster.Node { return w.srv.Node() }

// Server exposes the managed Apache instance.
func (w *ApacheWrapper) Server() *legacy.Apache { return w.srv }

// HTTPEndpoint implements httpEndpoint.
func (w *ApacheWrapper) HTTPEndpoint() legacy.HTTPHandler { return w.srv }

// OnSetAttribute reflects attributes into httpd.conf.
func (w *ApacheWrapper) OnSetAttribute(c *fractal.Component, name, value string) error {
	switch name {
	case "port":
		if _, err := parsePort(value, "apache port"); err != nil {
			return err
		}
		return editConfig(w.p.FS, w.srv.ConfPath(), legacy.ParseHTTPD, rendered,
			func(hc *config.HTTPDConf) { hc.Set("Listen", value) })
	default:
		return nil // free-form attributes are recorded only
	}
}

func (w *ApacheWrapper) editWorkers(edit func(*config.WorkerProperties)) error {
	return editConfig(w.p.FS, w.srv.WorkersPath(), legacy.ParseWorkers, rendered, edit)
}

// OnBind reflects an AJP binding into worker.properties.
func (w *ApacheWrapper) OnBind(c *fractal.Component, itf string, server *fractal.Interface) error {
	tw, err := targetWrapper(server)
	if err != nil {
		return err
	}
	port, err := strconv.Atoi(server.Owner().AttributeOr("ajp-port", "8009"))
	if err != nil {
		return fmt.Errorf("%w: ajp-port on %s", ErrBadAttribute, server.Owner().Name())
	}
	return w.editWorkers(func(wp *config.WorkerProperties) {
		wp.SetWorker(config.Worker{
			Name:     server.Owner().Name(),
			Host:     tw.Node().Name(),
			Port:     port,
			Type:     "ajp13",
			LBFactor: 100,
		})
	})
}

// OnUnbind removes the worker from worker.properties.
func (w *ApacheWrapper) OnUnbind(c *fractal.Component, itf string, server *fractal.Interface) error {
	return w.editWorkers(func(wp *config.WorkerProperties) {
		wp.RemoveWorker(server.Owner().Name())
	})
}

// StartManaged runs the Apache start script.
func (w *ApacheWrapper) StartManaged(done func(error)) { w.srv.Start(done) }

// StopManaged runs the Apache stop script.
func (w *ApacheWrapper) StopManaged(done func(error)) { w.srv.Stop(done) }

// TerminateManaged hard-kills the Apache process (repair of a replica
// that may still be alive).
func (w *ApacheWrapper) TerminateManaged() { w.srv.Terminate() }

// --- Tomcat wrapper ---

// TomcatWrapper manages a Tomcat servlet server: attributes "ajp-port"
// and "http-port" edit server.xml connectors; the "jdbc" client binding
// writes the JDBC resource URL.
type TomcatWrapper struct {
	p    *Platform
	srv  *legacy.Tomcat
	comp *fractal.Component
}

// NewTomcatComponent is the WrapperFactory for Tomcat.
func NewTomcatComponent(p *Platform, name string, node *cluster.Node) (*fractal.Component, error) {
	w := &TomcatWrapper{p: p, srv: legacy.NewTomcat(p.Env(), name, node, legacy.DefaultTomcatOptions())}
	comp, err := fractal.NewPrimitive(name, w,
		fractal.ItfSpec{Name: "http", Signature: SigHTTP, Role: fractal.Server},
		fractal.ItfSpec{Name: "ajp", Signature: SigAJP, Role: fractal.Server},
		fractal.ItfSpec{Name: "jdbc", Signature: SigJDBC, Role: fractal.Client,
			Contingency: fractal.Optional},
	)
	if err != nil {
		return nil, err
	}
	w.comp = comp
	sx := config.NewServerXML(name)
	sx.SetConnector("ajp13", 8009, "")
	sx.SetConnector("http", 8080, "")
	sx.Contexts = append(sx.Contexts, config.WebContextXML{Path: "/rubis", DocBase: "rubis"})
	text, err := sx.Render()
	if err != nil {
		return nil, err
	}
	if err := p.FS.WriteFile(w.srv.ConfPath(), []byte(text)); err != nil {
		return nil, err
	}
	// A slice, not a map: the component records first-set order, and
	// exported ADL lists attributes in it.
	for _, attr := range [][2]string{{"ajp-port", "8009"}, {"http-port", "8080"}} {
		if err := comp.SetAttribute(attr[0], attr[1]); err != nil {
			return nil, err
		}
	}
	return comp, nil
}

// Kind implements Wrapper.
func (w *TomcatWrapper) Kind() string { return "tomcat" }

// Node implements Wrapper.
func (w *TomcatWrapper) Node() *cluster.Node { return w.srv.Node() }

// Server exposes the managed Tomcat instance.
func (w *TomcatWrapper) Server() *legacy.Tomcat { return w.srv }

// HTTPEndpoint implements httpEndpoint.
func (w *TomcatWrapper) HTTPEndpoint() legacy.HTTPHandler { return w.srv }

func (w *TomcatWrapper) editServerXML(edit func(*config.ServerXML)) error {
	return editConfig(w.p.FS, w.srv.ConfPath(), legacy.ParseServerXML, (*config.ServerXML).Render, edit)
}

// OnSetAttribute reflects connector ports into server.xml.
func (w *TomcatWrapper) OnSetAttribute(c *fractal.Component, name, value string) error {
	switch name {
	case "ajp-port", "http-port":
		port, err := parsePort(value, "tomcat "+name)
		if err != nil {
			return err
		}
		proto := "ajp13"
		if name == "http-port" {
			proto = "http"
		}
		return w.editServerXML(func(sx *config.ServerXML) { sx.SetConnector(proto, port, "") })
	default:
		return nil
	}
}

// OnBind writes the JDBC resource into server.xml.
func (w *TomcatWrapper) OnBind(c *fractal.Component, itf string, server *fractal.Interface) error {
	tw, err := targetWrapper(server)
	if err != nil {
		return err
	}
	port := server.Owner().AttributeOr("port", "3306")
	url := fmt.Sprintf("jdbc:mysql://%s:%s/rubis", tw.Node().Name(), port)
	return w.editServerXML(func(sx *config.ServerXML) {
		sx.SetJDBC("rubis", "com.mysql.jdbc.Driver", url)
	})
}

// OnUnbind removes the JDBC resource.
func (w *TomcatWrapper) OnUnbind(c *fractal.Component, itf string, server *fractal.Interface) error {
	return w.editServerXML(func(sx *config.ServerXML) { sx.RemoveJDBC("rubis") })
}

// StartManaged runs Tomcat's start script.
func (w *TomcatWrapper) StartManaged(done func(error)) { w.srv.Start(done) }

// StopManaged runs Tomcat's stop script.
func (w *TomcatWrapper) StopManaged(done func(error)) { w.srv.Stop(done) }

// TerminateManaged hard-kills the Tomcat process (repair of a replica
// that may still be alive).
func (w *TomcatWrapper) TerminateManaged() { w.srv.Terminate() }

// --- MySQL wrapper ---

// MySQLWrapper manages a MySQL server: attribute "port" edits my.cnf;
// attribute "dump" names a registered database dump installed on first
// start (the RUBiS dataset in the experiments).
type MySQLWrapper struct {
	p    *Platform
	srv  *legacy.MySQL
	comp *fractal.Component
}

// NewMySQLComponent is the WrapperFactory for MySQL.
func NewMySQLComponent(p *Platform, name string, node *cluster.Node) (*fractal.Component, error) {
	w := &MySQLWrapper{p: p, srv: legacy.NewMySQL(p.Env(), name, node, legacy.DefaultMySQLOptions())}
	comp, err := fractal.NewPrimitive(name, w,
		fractal.ItfSpec{Name: "sql", Signature: SigJDBC, Role: fractal.Server},
	)
	if err != nil {
		return nil, err
	}
	w.comp = comp
	cnf := config.NewMyCnf()
	cnf.SetInt("mysqld", "port", 3306)
	cnf.Set("mysqld", "datadir", "/var/lib/mysql")
	if err := p.FS.WriteFile(w.srv.ConfPath(), []byte(cnf.Render())); err != nil {
		return nil, err
	}
	if err := comp.SetAttribute("port", "3306"); err != nil {
		return nil, err
	}
	return comp, nil
}

// Kind implements Wrapper.
func (w *MySQLWrapper) Kind() string { return "mysql" }

// Node implements Wrapper.
func (w *MySQLWrapper) Node() *cluster.Node { return w.srv.Node() }

// Server exposes the managed MySQL instance.
func (w *MySQLWrapper) Server() *legacy.MySQL { return w.srv }

// OnSetAttribute reflects the port into my.cnf.
func (w *MySQLWrapper) OnSetAttribute(c *fractal.Component, name, value string) error {
	switch name {
	case "port":
		port, err := parsePort(value, "mysql port")
		if err != nil {
			return err
		}
		return editConfig(w.p.FS, w.srv.ConfPath(), legacy.ParseMyCnf, rendered,
			func(cnf *config.MyCnf) { cnf.SetInt("mysqld", "port", port) })
	default:
		return nil
	}
}

// StartManaged installs the configured dump on an empty database, then
// runs the MySQL start script.
func (w *MySQLWrapper) StartManaged(done func(error)) {
	if dumpName := w.comp.AttributeOr("dump", ""); dumpName != "" && len(w.srv.DB().Tables()) == 0 {
		dump, ok := w.p.Dump(dumpName)
		if !ok {
			done(fmt.Errorf("jade: mysql %s: unknown dump %q", w.comp.Name(), dumpName))
			return
		}
		if err := w.srv.LoadSnapshot(dump); err != nil {
			done(err)
			return
		}
	}
	w.srv.Start(done)
}

// StopManaged runs the MySQL stop script.
func (w *MySQLWrapper) StopManaged(done func(error)) { w.srv.Stop(done) }

// TerminateManaged hard-kills the MySQL process (repair of a replica
// that may still be alive).
func (w *MySQLWrapper) TerminateManaged() { w.srv.Terminate() }

// --- C-JDBC wrapper ---

// CJDBCWrapper manages the C-JDBC database controller. Its "backends"
// client interface is a dynamic collection: initial deployment binds the
// starting replicas (joined at index 0 during StartManaged, since all are
// installed from the same dump before any write); at run time the db tier
// actuator synchronizes a replica through the recovery log and *then*
// binds it.
type CJDBCWrapper struct {
	p    *Platform
	node *cluster.Node
	comp *fractal.Component
	ctl  *cjdbc.Controller
}

// NewCJDBCComponent is the WrapperFactory for C-JDBC.
func NewCJDBCComponent(p *Platform, name string, node *cluster.Node) (*fractal.Component, error) {
	w := &CJDBCWrapper{p: p, node: node}
	comp, err := fractal.NewPrimitive(name, w,
		fractal.ItfSpec{Name: "jdbc", Signature: SigJDBC, Role: fractal.Server},
		fractal.ItfSpec{Name: "backends", Signature: SigJDBC, Role: fractal.Client,
			Contingency: fractal.Optional, Collection: true, Dynamic: true},
	)
	if err != nil {
		return nil, err
	}
	w.comp = comp
	if err := comp.SetAttribute("port", "25322"); err != nil {
		return nil, err
	}
	return comp, nil
}

// Kind implements Wrapper.
func (w *CJDBCWrapper) Kind() string { return "cjdbc" }

// Node implements Wrapper.
func (w *CJDBCWrapper) Node() *cluster.Node { return w.node }

// Controller exposes the managed C-JDBC controller (nil before start).
func (w *CJDBCWrapper) Controller() *cjdbc.Controller { return w.ctl }

// OnSetAttribute validates controller attributes (frozen while running).
func (w *CJDBCWrapper) OnSetAttribute(c *fractal.Component, name, value string) error {
	switch name {
	case "port":
		if w.ctl != nil && w.ctl.Running() {
			return fmt.Errorf("%w: cjdbc port", ErrAttributeFrozen)
		}
		if _, err := parsePort(value, "cjdbc port"); err != nil {
			return err
		}
	case "read-policy":
		if w.ctl != nil && w.ctl.Running() {
			return fmt.Errorf("%w: cjdbc read-policy", ErrAttributeFrozen)
		}
		if value != "" {
			if _, err := selector.ParsePolicy(value); err != nil {
				return fmt.Errorf("%w: cjdbc read-policy %q", ErrBadAttribute, value)
			}
		}
	}
	return nil
}

// OnBind validates a backend binding. A running controller only accepts
// bindings for backends it already knows (i.e. that the actuator joined
// after a recovery-log sync); deployment-time bindings are joined at
// StartManaged.
func (w *CJDBCWrapper) OnBind(c *fractal.Component, itf string, server *fractal.Interface) error {
	if _, err := w.mysqlOf(server); err != nil {
		return err
	}
	if w.ctl != nil && w.ctl.Running() {
		for _, b := range w.ctl.Backends() {
			if b.Name == server.Owner().Name() {
				return nil
			}
		}
		return fmt.Errorf("%w: %s", ErrNotSynced, server.Owner().Name())
	}
	return nil
}

// OnUnbind accepts removals; the controller-side Leave happens through
// the actuator before the architectural unbind.
func (w *CJDBCWrapper) OnUnbind(c *fractal.Component, itf string, server *fractal.Interface) error {
	return nil
}

func (w *CJDBCWrapper) mysqlOf(server *fractal.Interface) (*MySQLWrapper, error) {
	mw, ok := server.Owner().Content().(*MySQLWrapper)
	if !ok {
		return nil, fmt.Errorf("jade: cjdbc backend %s is not a mysql component", server.Owner().Name())
	}
	return mw, nil
}

// StartManaged starts the controller and joins every bound backend at
// recovery-log index 0 (all initial replicas hold the same dump).
func (w *CJDBCWrapper) StartManaged(done func(error)) {
	port, err := strconv.Atoi(w.comp.AttributeOr("port", "25322"))
	if err != nil {
		done(fmt.Errorf("%w: cjdbc port", ErrBadAttribute))
		return
	}
	opts := cjdbc.DefaultOptions()
	opts.Port = port
	if opts.Routing, err = w.routing(); err != nil {
		done(err)
		return
	}
	w.ctl = cjdbc.New(w.p.Eng, w.p.Net, w.node, w.comp.Name(), opts)
	w.ctl.Trace = w.p.Trace()
	w.ctl.Obs = obs.NewTierMetrics(w.p.Metrics(), "cjdbc", w.comp.Name())
	if err := w.ctl.Start(); err != nil {
		done(err)
		return
	}
	bindings := w.comp.Bindings("backends")
	var joinNext func(i int)
	joinNext = func(i int) {
		if i >= len(bindings) {
			done(nil)
			return
		}
		server := bindings[i].ServerItf
		mw, err := w.mysqlOf(server)
		if err != nil {
			done(err)
			return
		}
		err = w.ctl.JoinAt(server.Owner().Name(), mw.Server(), 0, func(jerr error) {
			if jerr != nil {
				done(jerr)
				return
			}
			joinNext(i + 1)
		})
		if err != nil {
			done(err)
		}
	}
	joinNext(0)
}

// routing returns the options the controller's read pool starts with.
// The component's read-policy attribute overrides the platform-wide
// routing configuration.
func (w *CJDBCWrapper) routing() (selector.Options, error) {
	policy := w.comp.AttributeOr("read-policy", "")
	if policy == "" {
		policy = w.p.opts.Routing.DB
	}
	return tierOptions(policy, cjdbc.DefaultOptions().Routing.Policy)
}

func (w *CJDBCWrapper) pool() *selector.Pool {
	if w.ctl == nil {
		return nil
	}
	return w.ctl.Pool()
}

// StopManaged disables all backends and stops the controller.
func (w *CJDBCWrapper) StopManaged(done func(error)) {
	if w.ctl == nil {
		done(nil)
		return
	}
	w.ctl.Stop()
	done(nil)
}

// JoinBackend synchronizes and activates a replica already installed and
// started on its node: the §4.1 recovery-log protocol.
func (w *CJDBCWrapper) JoinBackend(name string, mw *MySQLWrapper, atIndex int64, done func(error)) error {
	if w.ctl == nil || !w.ctl.Running() {
		return fmt.Errorf("jade: cjdbc %s is not running", w.comp.Name())
	}
	return w.ctl.JoinAt(name, mw.Server(), atIndex, done)
}

// LeaveBackend cleanly disables a replica, recording its checkpoint.
func (w *CJDBCWrapper) LeaveBackend(name string, done func(int64)) error {
	if w.ctl == nil || !w.ctl.Running() {
		return fmt.Errorf("jade: cjdbc %s is not running", w.comp.Name())
	}
	return w.ctl.Leave(name, done)
}

// --- Balancer wrapper (PLB, L4 switch) ---

// balancerKind is what tells the two HTTP balancers' wrappers apart.
type balancerKind struct {
	kind    string // wrapper kind, obs tier and error texts: "plb", "l4"
	members string // the dynamic client interface: "workers", "servers"
	member  string // one of them, in error texts
	// configured names the platform-wide policy for this tier, if any.
	configured func(RoutingConfig) string
	// options holds the defaults, the port and the policy among them.
	options func() plb.Options
	build   func(*sim.Engine, *legacy.Network, *cluster.Node, string, plb.Options) *plb.Balancer
}

var (
	plbBalancer = &balancerKind{kind: "plb", members: "workers", member: "worker",
		configured: func(r RoutingConfig) string { return r.App }, options: plb.DefaultOptions, build: plb.New}
	l4Balancer = &balancerKind{kind: "l4", members: "servers", member: "server",
		configured: func(r RoutingConfig) string { return r.L4 }, options: plb.DefaultL4Options, build: plb.NewL4}
)

// BalancerWrapper manages an HTTP balancer: the application-tier PLB or
// the front-end L4 switch balancing the Apache tier. Its members client
// interface ("workers" / "servers") is a dynamic collection; binding and
// unbinding while running adds and removes members live (the self-sizing
// actuator path).
type BalancerWrapper struct {
	k    *balancerKind
	p    *Platform
	node *cluster.Node
	comp *fractal.Component
	b    *plb.Balancer
}

// NewPLBComponent is the WrapperFactory for PLB.
func NewPLBComponent(p *Platform, name string, node *cluster.Node) (*fractal.Component, error) {
	return plbBalancer.newComponent(p, name, node)
}

// NewL4Component is the WrapperFactory for the L4 switch.
func NewL4Component(p *Platform, name string, node *cluster.Node) (*fractal.Component, error) {
	return l4Balancer.newComponent(p, name, node)
}

func (k *balancerKind) newComponent(p *Platform, name string, node *cluster.Node) (*fractal.Component, error) {
	w := &BalancerWrapper{k: k, p: p, node: node}
	comp, err := fractal.NewPrimitive(name, w,
		fractal.ItfSpec{Name: "http", Signature: SigHTTP, Role: fractal.Server},
		fractal.ItfSpec{Name: k.members, Signature: SigHTTP, Role: fractal.Client,
			Contingency: fractal.Optional, Collection: true, Dynamic: true},
	)
	if err != nil {
		return nil, err
	}
	w.comp = comp
	if err := comp.SetAttribute("port", strconv.Itoa(k.options().Port)); err != nil {
		return nil, err
	}
	return comp, nil
}

// Kind implements Wrapper.
func (w *BalancerWrapper) Kind() string { return w.k.kind }

// Node implements Wrapper.
func (w *BalancerWrapper) Node() *cluster.Node { return w.node }

// Balancer exposes the managed balancer (nil before start).
func (w *BalancerWrapper) Balancer() *plb.Balancer { return w.b }

// HTTPEndpoint implements httpEndpoint (for the L4 switch or clients).
func (w *BalancerWrapper) HTTPEndpoint() legacy.HTTPHandler { return w.b }

// OnSetAttribute validates balancer attributes (frozen while running).
func (w *BalancerWrapper) OnSetAttribute(c *fractal.Component, name, value string) error {
	if name != "port" {
		return nil
	}
	if w.b != nil && w.b.Running() {
		return fmt.Errorf("%w: %s port", ErrAttributeFrozen, w.k.kind)
	}
	_, err := parsePort(value, w.k.kind+" port")
	return err
}

// endpointOf resolves the HTTP target behind a member binding.
func (w *BalancerWrapper) endpointOf(server *fractal.Interface) (legacy.HTTPHandler, error) {
	ep, ok := server.Owner().Content().(httpEndpoint)
	if !ok {
		return nil, fmt.Errorf("jade: %s %s %s does not serve HTTP", w.k.kind, w.k.member, server.Owner().Name())
	}
	return ep.HTTPEndpoint(), nil
}

// OnBind integrates a member live when the balancer runs.
func (w *BalancerWrapper) OnBind(c *fractal.Component, itf string, server *fractal.Interface) error {
	target, err := w.endpointOf(server)
	if err != nil {
		return err
	}
	if w.b != nil && w.b.Running() {
		return w.b.Add(server.Owner().Name(), target, 1)
	}
	return nil
}

// OnUnbind removes a member live when the balancer runs.
func (w *BalancerWrapper) OnUnbind(c *fractal.Component, itf string, server *fractal.Interface) error {
	if w.b != nil && w.b.Running() {
		return w.b.Remove(server.Owner().Name())
	}
	return nil
}

// StartManaged starts the balancer and integrates bound members.
func (w *BalancerWrapper) StartManaged(done func(error)) {
	k := w.k
	opts := k.options()
	port, err := strconv.Atoi(w.comp.AttributeOr("port", strconv.Itoa(opts.Port)))
	if err != nil {
		done(fmt.Errorf("%w: %s port", ErrBadAttribute, k.kind))
		return
	}
	opts.Port = port
	if opts.Routing, err = w.routing(); err != nil {
		done(err)
		return
	}
	w.b = k.build(w.p.Eng, w.p.Net, w.node, w.comp.Name(), opts)
	w.b.Trace = w.p.Trace()
	w.b.Obs = obs.NewTierMetrics(w.p.Metrics(), k.kind, w.comp.Name())
	if err := w.b.Start(); err != nil {
		done(err)
		return
	}
	for _, bd := range w.comp.Bindings(k.members) {
		target, err := w.endpointOf(bd.ServerItf)
		if err == nil {
			err = w.b.Add(bd.ServerItf.Owner().Name(), target, 1)
		}
		if err != nil {
			done(err)
			return
		}
	}
	done(nil)
}

// routing returns the options the balancer's pool starts with.
func (w *BalancerWrapper) routing() (selector.Options, error) {
	return tierOptions(w.k.configured(w.p.opts.Routing), w.k.options().Routing.Policy)
}

func (w *BalancerWrapper) pool() *selector.Pool {
	if w.b == nil {
		return nil
	}
	return w.b.Pool()
}

// StopManaged stops the balancer.
func (w *BalancerWrapper) StopManaged(done func(error)) {
	if w.b != nil {
		w.b.Stop()
	}
	done(nil)
}
