package legacy

import (
	"fmt"
	"strconv"
	"strings"

	"jade/internal/cluster"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/trace"
)

// Tomcat simulates a Tomcat 3.3 servlet server. At startup it parses its
// server.xml for the AJP/HTTP connector ports and for the JDBC resource
// URL naming the database endpoint (a MySQL instance or the C-JDBC
// controller). A servlet request consumes application-tier CPU, then
// issues its SQL statements sequentially over the resolved JDBC
// connection, as the RUBiS servlets do through Connector/J.
type Tomcat struct {
	process
	confPath string
	jdbc     SQLExecutor
	jdbcAddr string
	servlets FreeList[servlet]
}

// TomcatOptions tunes a Tomcat instance.
type TomcatOptions struct {
	MemoryMB   float64
	StartDelay float64
	StopDelay  float64
}

// DefaultTomcatOptions mirrors a JVM-hosting footprint.
func DefaultTomcatOptions() TomcatOptions {
	return TomcatOptions{MemoryMB: 200, StartDelay: 8, StopDelay: 2}
}

// NewTomcat creates a Tomcat process on node; its server.xml lives at
// <node>/<name>/server.xml in the environment's FS.
func NewTomcat(env *Env, name string, node *cluster.Node, opts TomcatOptions) *Tomcat {
	t := &Tomcat{
		process: process{
			env:        env,
			name:       name,
			node:       node,
			memMB:      opts.MemoryMB,
			startDelay: opts.StartDelay,
			stopDelay:  opts.StopDelay,
		},
		confPath: node.Name() + "/" + name + "/server.xml",
	}
	t.obs = obs.NewTierMetrics(env.Obs, "app", name)
	t.watchNode()
	return t
}

// ConfPath returns the server.xml path in the workspace FS.
func (t *Tomcat) ConfPath() string { return t.confPath }

// JDBCAddr returns the database address resolved at the last start.
func (t *Tomcat) JDBCAddr() string { return t.jdbcAddr }

// ParseJDBCURL extracts "host:port" from a jdbc:mysql://host:port/db URL.
func ParseJDBCURL(url string) (string, error) {
	const prefix = "jdbc:mysql://"
	if !strings.HasPrefix(url, prefix) {
		return "", fmt.Errorf("legacy: unsupported JDBC URL %q", url)
	}
	rest := strings.TrimPrefix(url, prefix)
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return "", fmt.Errorf("legacy: JDBC URL %q has no database path", url)
	}
	hostport := rest[:slash]
	host, port, ok := strings.Cut(hostport, ":")
	if !ok || host == "" {
		return "", fmt.Errorf("legacy: JDBC URL %q has no host:port", url)
	}
	if _, err := strconv.Atoi(port); err != nil {
		return "", fmt.Errorf("legacy: JDBC URL %q has bad port: %w", url, err)
	}
	return hostport, nil
}

// Start boots the server: parse server.xml, resolve the JDBC resource (if
// declared), register the AJP connector on the network.
func (t *Tomcat) Start(done func(error)) {
	t.begin(func() error {
		raw, err := t.env.FS.ReadFile(t.confPath)
		if err != nil {
			return fmt.Errorf("tomcat %s: reading server.xml: %w", t.name, err)
		}
		sx, err := ParseServerXML(raw)
		if err != nil {
			return fmt.Errorf("tomcat %s: %w", t.name, err)
		}
		conn, ok := sx.Connector("ajp13")
		if !ok {
			return fmt.Errorf("tomcat %s: server.xml has no ajp13 connector", t.name)
		}
		t.jdbc = nil
		t.jdbcAddr = ""
		if res, ok := sx.JDBC("rubis"); ok {
			addr, err := ParseJDBCURL(res.URL)
			if err != nil {
				return fmt.Errorf("tomcat %s: %w", t.name, err)
			}
			exec, err := t.env.Net.LookupSQL(addr)
			if err != nil {
				return fmt.Errorf("tomcat %s: jdbc: %w", t.name, err)
			}
			t.jdbc = exec
			t.jdbcAddr = addr
		}
		return t.listen(fmt.Sprintf("%s:%d", t.node.Name(), conn.Port), t)
	}, done)
}

// Stop shuts the server down.
func (t *Tomcat) Stop(done func(error)) { t.end(done) }

// HandleHTTP runs the servlet: application-tier CPU, then the request's
// SQL statements sequentially through the JDBC connection.
func (t *Tomcat) HandleHTTP(req *WebRequest, done netsim.Reply) {
	if t.state != Running {
		t.obs.Drop()
		t.failed++
		done.Reply(fmt.Errorf("%w: tomcat %s is %s", ErrNotRunning, t.name, t.state))
		return
	}
	s := t.servlets.Get()
	s.t, s.req, s.done = t, req, done
	s.Begin(t.env.Eng.Now(), t.obs, t.env.Trace, req.TraceSpan, "app", t.name, trace.Fi("queries", len(req.Queries)))
	t.node.Run(&s.Job, req.AppCost, s)
}

// servlet is the record of one request in a Tomcat: what was asked, the
// hop on the app node (the record is its job's continuation, and each
// statement's reply) and the query in flight.
type servlet struct {
	Hop
	t     *Tomcat
	req   *WebRequest
	done  netsim.Reply
	query int // index of the statement in flight
}

// JobDone: the servlet's CPU work is done; issue the statements.
func (s *servlet) JobDone() {
	s.Ran(s.t.env.Eng.Now())
	s.runQueries()
}

// JobFailed: the app node crashed under the servlet.
func (s *servlet) JobFailed() {
	s.t.failed++
	s.finish(fmt.Errorf("%w: tomcat %s", ErrServerFailed, s.t.name))
}

// runQueries sends statement s.query, or answers when none is left.
func (s *servlet) runQueries() {
	t := s.t
	if s.query >= len(s.req.Queries) {
		t.served++
		s.finish(nil)
		return
	}
	if t.jdbc == nil {
		t.failed++
		s.finish(fmt.Errorf("%w: tomcat %s has no JDBC resource", ErrNoBackend, t.name))
		return
	}
	q := s.req.Queries[s.query]
	q.TraceSpan = s.Span
	t.env.Net.ForwardSQL(t.node.Name(), "sql", t.jdbc, q, s)
}

// Reply takes the answer to statement s.query.
func (s *servlet) Reply(err error) {
	if err != nil {
		s.t.failed++
		s.finish(fmt.Errorf("tomcat %s: query %d: %w", s.t.name, s.query, err))
		return
	}
	s.query++
	s.runQueries()
}

// finish ends the hop, puts the record back (see Hop) and answers the
// caller.
func (s *servlet) finish(err error) {
	t, done := s.t, s.done
	s.End(t.obs, t.env.Trace, s.req.AppCost/t.node.Config().CPUCapacity, err)
	t.servlets.Put(s)
	done.Reply(err)
}
