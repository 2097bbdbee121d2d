package cjdbc

import (
	"fmt"
	"testing"
	"testing/quick"

	"jade/internal/cluster"
	"jade/internal/config"
	"jade/internal/legacy"
	"jade/internal/netsim"
	"jade/internal/sim"
	"jade/internal/sqlengine"
)

// TestPropertyConsistencyUnderChurn drives a random interleaving of
// writes, clean leaves and checkpoint-based rejoins against the
// controller and asserts the §4.1 invariant: once quiescent, every
// active backend holds the same database state, and its content equals a
// reference engine that executed the same writes sequentially.
func TestPropertyConsistencyUnderChurn(t *testing.T) {
	f := func(ops []uint8) bool {
		eng := sim.NewEngine(21)
		env := &legacy.Env{Eng: eng, Net: legacy.NewNetwork(), FS: config.NewMemFS()}
		pool := cluster.NewPool(eng, "node", 6, cluster.DefaultConfig())

		cn, err := pool.Allocate()
		if err != nil {
			return false
		}
		ctl := New(eng, env.Net, cn, "cjdbc", DefaultOptions())
		if err := ctl.Start(); err != nil {
			return false
		}

		// Three replicas, all starting from the same empty schema.
		mysqls := make([]*legacy.MySQL, 3)
		for i := range mysqls {
			node, err := pool.Allocate()
			if err != nil {
				return false
			}
			m := legacy.NewMySQL(env, fmt.Sprintf("mysql%d", i), node, legacy.DefaultMySQLOptions())
			cnf := config.NewMyCnf()
			cnf.SetInt("mysqld", "port", 3306)
			if err := env.FS.WriteFile(m.ConfPath(), []byte(cnf.Render())); err != nil {
				return false
			}
			ok := false
			m.Start(func(err error) { ok = err == nil })
			eng.Run()
			if !ok {
				return false
			}
			mysqls[i] = m
		}
		joined := make([]bool, 3)
		for i, m := range mysqls {
			if err := ctl.JoinAt(fmt.Sprintf("b%d", i), m, 0, nil); err != nil {
				return false
			}
			joined[i] = true
		}
		eng.Run()

		// Reference engine sees the same write sequence.
		ref := newRefEngine()
		writeErrs := 0
		writeN := 0

		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // write
				sql := fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", writeN)
				if writeN == 0 {
					sql = "CREATE TABLE t (a INT)"
				}
				writeN++
				ref.exec(sql)
				ctl.ExecSQL(legacy.Query{SQL: sql, Cost: 0.001}, netsim.ReplyFunc(func(err error) {
					if err != nil {
						writeErrs++
					}
				}))
			case 2: // leave a random joined backend (keep at least one)
				i := int(op/4) % 3
				if joined[i] && ctl.ActiveCount() > 1 {
					if err := ctl.Leave(fmt.Sprintf("b%d", i), nil); err == nil {
						joined[i] = false
					}
				}
			case 3: // rejoin a left backend from its checkpoint
				i := int(op/4) % 3
				if !joined[i] {
					if err := ctl.Join(fmt.Sprintf("b%d", i), mysqls[i], nil); err == nil {
						joined[i] = true
					}
				}
			}
			// Occasionally let the simulation drain mid-stream.
			if op%16 == 5 {
				eng.Run()
			}
		}
		eng.Run()
		if writeErrs != 0 {
			return false
		}
		// Quiescent: all active backends identical to each other...
		rep := ctl.CheckConsistency()
		if !rep.Consistent {
			return false
		}
		// ...and identical to the sequential reference.
		for i, m := range mysqls {
			if !joined[i] {
				continue
			}
			if m.DB().Fingerprint() != ref.fingerprint() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// refSQL records the sequential write trajectory and replays it on a
// fresh engine to fingerprint the expected state.
type refSQL struct {
	stmts []string
}

func newRefEngine() *refSQL { return &refSQL{} }

func (r *refSQL) exec(sql string) { r.stmts = append(r.stmts, sql) }

func (r *refSQL) fingerprint() uint64 {
	db := sqlengine.New()
	for _, s := range r.stmts {
		if _, err := db.Exec(s); err != nil {
			return 0
		}
	}
	return db.Fingerprint()
}
