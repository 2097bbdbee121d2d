package legacy

import (
	"fmt"

	"jade/internal/cluster"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/sqlengine"
)

// MySQL simulates a MySQL 4.0 server: a process holding one sqlengine
// database instance. At startup it parses my.cnf for its port and
// registers that listener. Query execution consumes database-tier CPU on
// the node and then actually executes the statement, so replica
// consistency is a real, checkable property.
type MySQL struct {
	process
	confPath   string
	db         *sqlengine.Engine
	executions FreeList[execution]
}

// MySQLOptions tunes a MySQL instance.
type MySQLOptions struct {
	MemoryMB   float64
	StartDelay float64
	StopDelay  float64
}

// DefaultMySQLOptions mirrors a modest MySQL 4.0 footprint.
func DefaultMySQLOptions() MySQLOptions {
	return MySQLOptions{MemoryMB: 256, StartDelay: 5, StopDelay: 2}
}

// NewMySQL creates a MySQL process on node with an empty database; its
// my.cnf lives at <node>/<name>/my.cnf in the environment's FS.
func NewMySQL(env *Env, name string, node *cluster.Node, opts MySQLOptions) *MySQL {
	m := &MySQL{
		process: process{
			env:        env,
			name:       name,
			node:       node,
			memMB:      opts.MemoryMB,
			startDelay: opts.StartDelay,
			stopDelay:  opts.StopDelay,
		},
		confPath: node.Name() + "/" + name + "/my.cnf",
		db:       sqlengine.New(),
	}
	m.obs = obs.NewTierMetrics(env.Obs, "db", name)
	m.watchNode()
	return m
}

// ConfPath returns the my.cnf path in the workspace FS.
func (m *MySQL) ConfPath() string { return m.confPath }

// DB exposes the underlying database engine. The C-JDBC controller uses
// it to install snapshots on fresh replicas and to compare fingerprints;
// it is the moral equivalent of direct datadir access.
func (m *MySQL) DB() *sqlengine.Engine { return m.db }

// LoadSnapshot replaces the database state (installing a dump on a fresh
// replica). Only legal while the server is stopped, as with a real datadir
// copy.
func (m *MySQL) LoadSnapshot(snap *sqlengine.Engine) error {
	if m.state == Running || m.state == Starting {
		return fmt.Errorf("%w: cannot load snapshot into running mysql %s", ErrAlreadyRunning, m.name)
	}
	m.db = snap.Snapshot()
	return nil
}

// Start boots the server: parse my.cnf and listen on the configured port.
func (m *MySQL) Start(done func(error)) {
	m.begin(func() error {
		raw, err := m.env.FS.ReadFile(m.confPath)
		if err != nil {
			return fmt.Errorf("mysql %s: reading my.cnf: %w", m.name, err)
		}
		cnf, err := ParseMyCnf(raw)
		if err != nil {
			return fmt.Errorf("mysql %s: %w", m.name, err)
		}
		port, err := cnf.GetInt("mysqld", "port")
		if err != nil {
			return fmt.Errorf("mysql %s: my.cnf: %w", m.name, err)
		}
		return m.listen(fmt.Sprintf("%s:%d", m.node.Name(), port), m)
	}, done)
}

// Stop shuts the server down. Its database state persists across
// stop/start, as a real datadir would.
func (m *MySQL) Stop(done func(error)) { m.end(done) }

// ExecSQL consumes CPU for the query, then executes the statement against
// the database.
func (m *MySQL) ExecSQL(q Query, done netsim.Reply) {
	if m.state != Running {
		m.obs.Drop()
		m.failed++
		done.Reply(fmt.Errorf("%w: mysql %s is %s", ErrNotRunning, m.name, m.state))
		return
	}
	e := m.executions.Get()
	e.m, e.q, e.done = m, q, done
	e.Begin(m.env.Eng.Now(), m.obs, m.env.Trace, q.TraceSpan, "db", m.name)
	m.node.Run(&e.Job, q.Cost, e)
}

// execution is the record of one statement in a MySQL server: the query
// and the hop on the database node (the record is its job's continuation).
type execution struct {
	Hop
	m    *MySQL
	q    Query
	done netsim.Reply
}

// JobDone: the CPU is paid for; run the statement.
func (e *execution) JobDone() {
	m := e.m
	e.Ran(m.env.Eng.Now())
	if err := e.q.run(m.db); err != nil {
		m.failed++
		e.finish(&StatementError{Server: m.name, Err: err})
		return
	}
	m.served++
	e.finish(nil)
}

// StatementError is a running server's answer to a statement it cannot
// execute: it does not parse, names no table, compares a number with text.
// The fault is the statement's, so a caller holding several replicas
// (C-JDBC) has no reason to distrust this one or to try the next.
type StatementError struct {
	Server string
	Err    error
}

func (e *StatementError) Error() string { return "mysql " + e.Server + ": " + e.Err.Error() }
func (e *StatementError) Unwrap() error { return e.Err }

// JobFailed: the database node crashed under the statement.
func (e *execution) JobFailed() {
	e.m.failed++
	e.finish(fmt.Errorf("%w: mysql %s", ErrServerFailed, e.m.name))
}

// finish ends the hop, puts the record back (see Hop) and answers the
// caller.
func (e *execution) finish(err error) {
	m, done := e.m, e.done
	e.End(m.obs, m.env.Trace, e.q.Cost/m.node.Config().CPUCapacity, err)
	m.executions.Put(e)
	done.Reply(err)
}
