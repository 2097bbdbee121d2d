package cjdbc

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"jade/internal/cluster"
	"jade/internal/config"
	"jade/internal/legacy"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/selector"
	"jade/internal/sim"
	"jade/internal/sqlengine"
)

// rig is a test cluster: a controller plus helpers to mint MySQL replicas.
type rig struct {
	t    *testing.T
	env  *legacy.Env
	pool *cluster.Pool
	ctl  *Controller
}

func newRig(t *testing.T, nodes int) *rig {
	t.Helper()
	eng := sim.NewEngine(7)
	env := &legacy.Env{Eng: eng, Net: legacy.NewNetwork(), FS: config.NewMemFS()}
	pool := cluster.NewPool(eng, "node", nodes, cluster.DefaultConfig())
	cn, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	ctl := New(eng, env.Net, cn, "cjdbc", DefaultOptions())
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, env: env, pool: pool, ctl: ctl}
}

// mysql creates and starts a MySQL replica on a fresh node.
func (r *rig) mysql(name string) *legacy.MySQL {
	r.t.Helper()
	n, err := r.pool.Allocate()
	if err != nil {
		r.t.Fatal(err)
	}
	m := legacy.NewMySQL(r.env, name, n, legacy.DefaultMySQLOptions())
	cnf := config.NewMyCnf()
	cnf.SetInt("mysqld", "port", 3306)
	if err := r.env.FS.WriteFile(m.ConfPath(), []byte(cnf.Render())); err != nil {
		r.t.Fatal(err)
	}
	var got error = errors.New("pending")
	m.Start(func(err error) { got = err })
	r.env.Eng.Run()
	if got != nil {
		r.t.Fatal(got)
	}
	return m
}

// join adds a replica and waits for activation.
func (r *rig) join(name string, m *legacy.MySQL) {
	r.t.Helper()
	var got error = errors.New("pending")
	if err := r.ctl.Join(name, m, func(err error) { got = err }); err != nil {
		r.t.Fatal(err)
	}
	r.env.Eng.Run()
	if got != nil {
		r.t.Fatal(got)
	}
}

// exec runs one statement through the controller and waits.
func (r *rig) exec(sql string) error {
	r.t.Helper()
	var got error = errors.New("pending")
	r.ctl.ExecSQL(legacy.Query{SQL: sql, Cost: 0.001}, netsim.ReplyFunc(func(err error) { got = err }))
	r.env.Eng.Run()
	return got
}

func (r *rig) mustExec(sql string) {
	r.t.Helper()
	if err := r.exec(sql); err != nil {
		r.t.Fatalf("exec %q: %v", sql, err)
	}
}

func TestSingleBackendReadWrite(t *testing.T) {
	r := newRig(t, 3)
	m1 := r.mysql("mysql1")
	r.join("b1", m1)
	if r.ctl.ActiveCount() != 1 {
		t.Fatalf("ActiveCount = %d", r.ctl.ActiveCount())
	}
	r.mustExec("CREATE TABLE t (a INT)")
	r.mustExec("INSERT INTO t (a) VALUES (1)")
	r.mustExec("SELECT * FROM t")
	if m1.DB().RowCount("t") != 1 {
		t.Fatal("write did not reach backend")
	}
	if r.ctl.Log().Len() != 2 {
		t.Fatalf("recovery log holds %d records, want 2 writes", r.ctl.Log().Len())
	}
	if r.ctl.Reads() != 1 || r.ctl.Writes() != 2 {
		t.Fatalf("reads=%d writes=%d", r.ctl.Reads(), r.ctl.Writes())
	}
}

func TestWriteBroadcastFullMirroring(t *testing.T) {
	r := newRig(t, 4)
	m1, m2 := r.mysql("mysql1"), r.mysql("mysql2")
	r.join("b1", m1)
	r.join("b2", m2)
	r.mustExec("CREATE TABLE t (a INT)")
	for i := 0; i < 10; i++ {
		r.mustExec(fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", i))
	}
	if m1.DB().RowCount("t") != 10 || m2.DB().RowCount("t") != 10 {
		t.Fatalf("rows: %d / %d, want full mirroring", m1.DB().RowCount("t"), m2.DB().RowCount("t"))
	}
	rep := r.ctl.CheckConsistency()
	if !rep.Consistent {
		t.Fatalf("replicas diverged: %+v", rep)
	}
}

func TestReadsBalancedAcrossBackends(t *testing.T) {
	r := newRig(t, 4)
	m1, m2 := r.mysql("mysql1"), r.mysql("mysql2")
	r.join("b1", m1)
	r.join("b2", m2)
	r.mustExec("CREATE TABLE t (a INT)")
	before1, before2 := m1.Served(), m2.Served()
	for i := 0; i < 20; i++ {
		r.ctl.ExecSQL(legacy.Query{SQL: "SELECT * FROM t", Cost: 0.002}, netsim.ReplyFunc(func(error) {}))
	}
	r.env.Eng.Run()
	got1, got2 := m1.Served()-before1, m2.Served()-before2
	if got1+got2 != 20 {
		t.Fatalf("reads lost: %d + %d", got1, got2)
	}
	if got1 == 0 || got2 == 0 {
		t.Fatalf("reads not balanced: %d / %d", got1, got2)
	}
}

func TestRecoveryLogSyncFreshReplica(t *testing.T) {
	// The §4.1 protocol: snapshot an active backend, install on a fresh
	// replica, replay the delta, activate — then verify full consistency.
	r := newRig(t, 5)
	m1 := r.mysql("mysql1")
	r.join("b1", m1)
	r.mustExec("CREATE TABLE t (a INT)")
	for i := 0; i < 5; i++ {
		r.mustExec(fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", i))
	}

	snap, idx, err := r.ctl.SnapshotFrom("b1")
	if err != nil {
		t.Fatal(err)
	}
	if idx != 6 {
		t.Fatalf("snapshot index = %d, want 6", idx)
	}

	// More writes land after the snapshot — the delta the log must replay.
	for i := 5; i < 12; i++ {
		r.mustExec(fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", i))
	}

	m2 := r.mysql("mysql2")
	var stopErr error
	m2.Stop(func(err error) { stopErr = err })
	r.env.Eng.Run()
	if stopErr != nil {
		t.Fatal(stopErr)
	}
	if err := m2.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	var startErr error = errors.New("pending")
	m2.Start(func(err error) { startErr = err })
	r.env.Eng.Run()
	if startErr != nil {
		t.Fatal(startErr)
	}

	var syncErr error = errors.New("pending")
	if err := r.ctl.JoinAt("b2", m2, idx, func(err error) { syncErr = err }); err != nil {
		t.Fatal(err)
	}
	r.env.Eng.Run()
	if syncErr != nil {
		t.Fatal(syncErr)
	}
	if m2.DB().RowCount("t") != 12 {
		t.Fatalf("synced replica has %d rows, want 12", m2.DB().RowCount("t"))
	}
	rep := r.ctl.CheckConsistency()
	if !rep.Consistent || len(rep.Fingerprints) != 2 {
		t.Fatalf("post-sync consistency: %+v", rep)
	}
}

func TestWritesDuringSyncAreNotLost(t *testing.T) {
	r := newRig(t, 5)
	m1 := r.mysql("mysql1")
	r.join("b1", m1)
	r.mustExec("CREATE TABLE t (a INT)")
	// Build a long-ish log so the sync takes simulated time.
	for i := 0; i < 50; i++ {
		r.mustExec(fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", i))
	}

	m2 := r.mysql("mysql2")
	synced := false
	if err := r.ctl.JoinAt("b2", m2, 0, func(err error) {
		if err != nil {
			t.Errorf("sync failed: %v", err)
		}
		synced = true
	}); err != nil {
		t.Fatal(err)
	}
	// Interleave new writes while b2 is replaying.
	for i := 50; i < 60; i++ {
		sql := fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", i)
		r.ctl.ExecSQL(legacy.Query{SQL: sql, Cost: 0.001}, netsim.ReplyFunc(func(err error) {
			if err != nil {
				t.Errorf("write during sync: %v", err)
			}
		}))
	}
	r.env.Eng.Run()
	if !synced {
		t.Fatal("backend never activated")
	}
	if m2.DB().RowCount("t") != 60 {
		t.Fatalf("synced replica has %d rows, want 60", m2.DB().RowCount("t"))
	}
	if !r.ctl.CheckConsistency().Consistent {
		t.Fatal("replicas diverged after sync with concurrent writes")
	}
}

func TestLeaveRecordsCheckpointAndRejoinReplaysDelta(t *testing.T) {
	r := newRig(t, 5)
	m1, m2 := r.mysql("mysql1"), r.mysql("mysql2")
	r.join("b1", m1)
	r.join("b2", m2)
	r.mustExec("CREATE TABLE t (a INT)")
	r.mustExec("INSERT INTO t (a) VALUES (1)")

	var checkpoint int64 = -1
	if err := r.ctl.Leave("b2", func(idx int64) { checkpoint = idx }); err != nil {
		t.Fatal(err)
	}
	r.env.Eng.Run()
	if checkpoint != 2 {
		t.Fatalf("checkpoint = %d, want 2", checkpoint)
	}
	if got, ok := r.ctl.Log().Checkpoint("b2"); !ok || got != 2 {
		t.Fatalf("log checkpoint = %d, %v", got, ok)
	}
	if r.ctl.ActiveCount() != 1 {
		t.Fatalf("ActiveCount = %d after leave", r.ctl.ActiveCount())
	}

	// Writes while b2 is out.
	for i := 2; i < 8; i++ {
		r.mustExec(fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", i))
	}
	if m2.DB().RowCount("t") != 1 {
		t.Fatalf("disabled backend applied writes: %d rows", m2.DB().RowCount("t"))
	}

	// Rejoin by name: Join resumes from the recorded checkpoint.
	r.join("b2", m2)
	if m2.DB().RowCount("t") != 7 {
		t.Fatalf("rejoined replica has %d rows, want 7", m2.DB().RowCount("t"))
	}
	if !r.ctl.CheckConsistency().Consistent {
		t.Fatal("replicas diverged after rejoin")
	}
	if _, ok := r.ctl.Log().Checkpoint("b2"); ok {
		t.Fatal("checkpoint not dropped after rejoin")
	}
}

func TestLeaveWhileWriteInFlightStillAcks(t *testing.T) {
	r := newRig(t, 4)
	m1, m2 := r.mysql("mysql1"), r.mysql("mysql2")
	r.join("b1", m1)
	r.join("b2", m2)
	r.mustExec("CREATE TABLE t (a INT)")

	// Issue a slow write, let it get logged and start applying on both
	// backends, then disable b2 mid-apply; the write must still complete
	// and b2 must still apply it before checkpointing.
	var writeErr error = errors.New("pending")
	r.ctl.ExecSQL(legacy.Query{SQL: "INSERT INTO t (a) VALUES (1)", Cost: 0.5},
		netsim.ReplyFunc(func(err error) { writeErr = err }))
	r.env.Eng.RunUntil(r.env.Eng.Now() + 0.01) // past the proxy hop, mid-apply
	var checkpoint int64 = -1
	if err := r.ctl.Leave("b2", func(idx int64) { checkpoint = idx }); err != nil {
		t.Fatal(err)
	}
	r.env.Eng.Run()
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	if checkpoint != 2 {
		t.Fatalf("checkpoint = %d, want 2 (both writes applied)", checkpoint)
	}
	if m2.DB().RowCount("t") != 1 {
		t.Fatalf("draining backend missed the in-flight write: %d rows", m2.DB().RowCount("t"))
	}
}

func TestBackendNodeCrashDropsBackendButServiceContinues(t *testing.T) {
	r := newRig(t, 4)
	m1, m2 := r.mysql("mysql1"), r.mysql("mysql2")
	r.join("b1", m1)
	r.join("b2", m2)
	r.mustExec("CREATE TABLE t (a INT)")

	m2.Node().Fail()
	// Writes survive: b2 is marked dead on its first failed apply.
	if err := r.exec("INSERT INTO t (a) VALUES (1)"); err != nil {
		t.Fatalf("write after backend crash: %v", err)
	}
	if r.ctl.ActiveCount() != 1 {
		t.Fatalf("ActiveCount = %d, want 1 after crash", r.ctl.ActiveCount())
	}
	// Reads retry onto the survivor.
	if err := r.exec("SELECT * FROM t"); err != nil {
		t.Fatalf("read after backend crash: %v", err)
	}
	if m1.DB().RowCount("t") != 1 {
		t.Fatal("surviving backend missed the write")
	}
}

func TestAllBackendsGoneFailsRequests(t *testing.T) {
	r := newRig(t, 3)
	m1 := r.mysql("mysql1")
	r.join("b1", m1)
	r.mustExec("CREATE TABLE t (a INT)")
	m1.Node().Fail()
	if err := r.exec("SELECT * FROM t"); !errors.Is(err, ErrNoBackend) {
		// The read first tries b1, fails, marks it dead, retries, finds none.
		if err == nil {
			t.Fatal("read with no backends succeeded")
		}
	}
	if err := r.exec("INSERT INTO t (a) VALUES (1)"); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("write with no backends: %v", err)
	}
	if r.ctl.Failures() == 0 {
		t.Fatal("failures counter not incremented")
	}
}

func TestJoinValidation(t *testing.T) {
	r := newRig(t, 4)
	m1 := r.mysql("mysql1")
	r.join("b1", m1)
	// Duplicate name.
	if err := r.ctl.Join("b1", m1, nil); !errors.Is(err, ErrBackendExists) {
		t.Fatalf("duplicate join: %v", err)
	}
	// Stopped server.
	m2 := r.mysql("mysql2")
	var stopErr error
	m2.Stop(func(err error) { stopErr = err })
	r.env.Eng.Run()
	if stopErr != nil {
		t.Fatal(stopErr)
	}
	if err := r.ctl.Join("b2", m2, nil); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("join stopped server: %v", err)
	}
	// Bad index.
	var restart error = errors.New("pending")
	m2.Start(func(err error) { restart = err })
	r.env.Eng.Run()
	if restart != nil {
		t.Fatal(restart)
	}
	if err := r.ctl.JoinAt("b2", m2, 99, nil); err == nil {
		t.Fatal("join beyond log length accepted")
	}
	if err := r.ctl.JoinAt("b2", m2, -1, nil); err == nil {
		t.Fatal("negative join index accepted")
	}
	// A name rejoins once its backend died, and once its leave finished,
	// but not while it drains.
	r.join("b2", m2)
	if err := r.ctl.MarkFailed("b2", nil); err != nil {
		t.Fatal(err)
	}
	r.join("b2", m2)
	r.mustExec("CREATE TABLE t (a INT)")
	r.ctl.ExecSQL(legacy.Query{SQL: "INSERT INTO t (a) VALUES (1)", Cost: 0.5}, netsim.ReplyFunc(func(error) {}))
	r.env.Eng.RunUntil(r.env.Eng.Now() + 0.01) // mid-apply
	left := false
	if err := r.ctl.Leave("b2", func(int64) { left = true }); err != nil {
		t.Fatal(err)
	}
	if err := r.ctl.Join("b2", m2, nil); !errors.Is(err, ErrBackendExists) || left {
		t.Fatalf("join while draining: %v (left %v)", err, left)
	}
	r.env.Eng.Run()
	if !left {
		t.Fatal("leave never finished")
	}
	r.join("b2", m2)
	if r.ctl.ActiveCount() != 2 || m2.DB().RowCount("t") != 1 {
		t.Fatalf("%d active, %d rows on the rejoined backend; want 2 and 1", r.ctl.ActiveCount(), m2.DB().RowCount("t"))
	}
}

func TestLeaveValidation(t *testing.T) {
	r := newRig(t, 3)
	m1 := r.mysql("mysql1")
	r.join("b1", m1)
	if err := r.ctl.Leave("ghost", nil); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("leave unknown: %v", err)
	}
	if err := r.ctl.Leave("b1", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.ctl.Leave("b1", nil); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("double leave: %v", err)
	}
}

func TestControllerLifecycle(t *testing.T) {
	r := newRig(t, 3)
	if err := r.ctl.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	r.ctl.Stop()
	if r.ctl.Running() {
		t.Fatal("still running after stop")
	}
	var got error
	r.ctl.ExecSQL(legacy.Query{SQL: "SELECT 1 FROM t"}, netsim.ReplyFunc(func(err error) { got = err }))
	r.env.Eng.Run()
	if !errors.Is(got, ErrNotRunning) {
		t.Fatalf("request to stopped controller: %v", got)
	}
	r.ctl.Stop() // idempotent
	if err := r.ctl.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
}

func TestBackendsStatusReport(t *testing.T) {
	r := newRig(t, 4)
	m1, m2 := r.mysql("mysql1"), r.mysql("mysql2")
	r.join("b1", m1)
	r.join("b2", m2)
	infos := r.ctl.Backends()
	if len(infos) != 2 || infos[0].Name != "b1" || infos[1].Name != "b2" {
		t.Fatalf("Backends() = %+v", infos)
	}
	for _, bi := range infos {
		if bi.State != Active {
			t.Fatalf("backend %s state = %v", bi.Name, bi.State)
		}
	}
}

func TestSnapshotValidation(t *testing.T) {
	r := newRig(t, 3)
	if _, _, err := r.ctl.SnapshotFrom("ghost"); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("snapshot unknown: %v", err)
	}
	if _, _, err := r.ctl.AnyActiveSnapshot(); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("snapshot with no backends: %v", err)
	}
	m1 := r.mysql("mysql1")
	r.join("b1", m1)
	if _, idx, err := r.ctl.AnyActiveSnapshot(); err != nil || idx != 0 {
		t.Fatalf("AnyActiveSnapshot = %d, %v", idx, err)
	}
}

func TestRoundRobinReadPolicy(t *testing.T) {
	eng := sim.NewEngine(9)
	env := &legacy.Env{Eng: eng, Net: legacy.NewNetwork(), FS: config.NewMemFS()}
	pool := cluster.NewPool(eng, "node", 4, cluster.DefaultConfig())
	cn, _ := pool.Allocate()
	opts := DefaultOptions()
	opts.Routing = selector.DefaultOptions(selector.RoundRobin)
	ctl := New(eng, env.Net, cn, "cjdbc", opts)
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, env: env, pool: pool, ctl: ctl}
	m1, m2 := r.mysql("mysql1"), r.mysql("mysql2")
	r.join("b1", m1)
	r.join("b2", m2)
	r.mustExec("CREATE TABLE t (a INT)")
	b1, b2 := m1.Served(), m2.Served()
	for i := 0; i < 10; i++ {
		ctl.ExecSQL(legacy.Query{SQL: "SELECT * FROM t", Cost: 0.001}, netsim.ReplyFunc(func(error) {}))
	}
	eng.Run()
	if m1.Served()-b1 != 5 || m2.Served()-b2 != 5 {
		t.Fatalf("round robin split = %d/%d", m1.Served()-b1, m2.Served()-b2)
	}
}

func TestRecoveryLogAccessors(t *testing.T) {
	l := NewRecoveryLog()
	if l.Len() != 0 {
		t.Fatal("fresh log not empty")
	}
	if _, ok := l.At(0); ok {
		t.Fatal("At(0) on empty log")
	}
	idx := l.Append(legacy.Query{SQL: "INSERT INTO t (a) VALUES (1)"})
	if idx != 0 || l.Len() != 1 {
		t.Fatalf("first append: idx=%d len=%d", idx, l.Len())
	}
	l.Append(legacy.Query{SQL: "INSERT INTO t (a) VALUES (2)"})
	if rec, ok := l.At(1); !ok || rec.Index != 1 {
		t.Fatalf("At(1) = %+v, %v", rec, ok)
	}
	l.SetCheckpoint("b", 1)
	if idx, ok := l.Checkpoint("b"); !ok || idx != 1 {
		t.Fatalf("checkpoint = %d, %v", idx, ok)
	}
	l.DropCheckpoint("b")
	if _, ok := l.Checkpoint("b"); ok {
		t.Fatal("checkpoint survived drop")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[BackendState]string{
		Syncing: "SYNCING", Active: "ACTIVE", Disabled: "DISABLED",
		Dead: "DEAD", BackendState(9): "?",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

// A replica built the §4.1 way — snapshot of a live backend, then replay of
// the recovery log — ends in the live backend's state and gives the same
// answers to the reads the engine serves from an index, although the live
// one kept its indexes and the new one built its own. Each record holds
// the statement its text parses to, and replay runs it as logged.
func TestSnapshotReplayReplicaAnswersIndexedReads(t *testing.T) {
	r := newRig(t, 5)
	m1 := r.mysql("mysql1")
	r.join("b1", m1)
	r.mustExec("CREATE TABLE bids (id INT, user_id INT, item_id INT, bid FLOAT)")
	id := 0
	bid := func(item int) {
		id++
		r.mustExec(fmt.Sprintf("INSERT INTO bids (id, user_id, item_id, bid) VALUES (%d, %d, %d, %d.5)", id, id%7, item, id))
	}
	reads := []string{
		"SELECT * FROM bids WHERE item_id = 3 ORDER BY bid DESC LIMIT 3",
		"SELECT COUNT(*) FROM bids WHERE item_id = 4",
		"SELECT id, bid FROM bids WHERE user_id = 2 AND item_id = 9",
		"SELECT * FROM bids WHERE id = 12",
	}
	for i := 0; i < 40; i++ {
		bid(i % 5)
	}
	for _, sql := range reads {
		r.mustExec(sql) // the live backend now has indexes on item_id, user_id and id
	}
	snap, idx, err := r.ctl.SnapshotFrom("b1")
	if err != nil {
		t.Fatal(err)
	}
	// The delta: rows for the indexes to take in, two indexed columns
	// rewritten, reads in between.
	for i := 0; i < 20; i++ {
		bid(i % 5)
	}
	r.mustExec("UPDATE bids SET item_id = 9 WHERE item_id = 3")
	r.mustExec(reads[2])
	r.mustExec("UPDATE bids SET user_id = 6 WHERE user_id = 5")
	r.mustExec(reads[0])
	bid(3)
	for i := int64(0); i < r.ctl.log.Len(); i++ {
		rec, _ := r.ctl.log.At(i)
		if stmt, err := sqlengine.Parse(rec.Query.SQL); err != nil || !reflect.DeepEqual(stmt, rec.Query.Stmt) {
			t.Fatalf("log record %d does not hold the statement its text parses to: %+v", i, rec.Query)
		}
	}

	m2 := r.mysql("mysql2")
	m2.Stop(func(error) {})
	r.env.Eng.Run()
	if err := m2.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	m2.Start(func(error) {})
	r.env.Eng.Run()
	var syncErr error = errors.New("pending")
	if err := r.ctl.JoinAt("b2", m2, idx, func(err error) { syncErr = err }); err != nil {
		t.Fatal(err)
	}
	r.env.Eng.Run()
	if syncErr != nil {
		t.Fatal(syncErr)
	}
	if rep := r.ctl.CheckConsistency(); !rep.Consistent || len(rep.Fingerprints) != 2 {
		t.Fatalf("consistency after replay: %+v", rep)
	}
	for _, sql := range append(reads, "SELECT * FROM bids WHERE item_id = 9", "SELECT * FROM bids") {
		live, err1 := m1.DB().Exec(sql)
		replayed, err2 := m2.DB().Exec(sql)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v, %v", sql, err1, err2)
		}
		if !reflect.DeepEqual(live, replayed) {
			t.Fatalf("%s:\nlive     %v\nreplayed %v", sql, live.Rows, replayed.Rows)
		}
	}
}

// A read costs the controller nothing beyond what the backend costs
// (measured here and subtracted; 0 too): the controller's record, which is
// also the backend's reply, and the backend's come from their free lists.
// Prepared, nothing is parsed and the engine allocates nothing, here or in
// the backend. As text it costs what sqlengine.Parse allocates for the
// statement (3 for this SELECT). Measured 0 in cjdbc and cluster, and 0 in
// the backend; 1 and 1 while each read allocated its records, 2 in cjdbc
// while the record bound a callback for the backend, 10 before the record.
// Instruments on, tracing off.
func TestReadAllocs(t *testing.T) {
	r := newRig(t, 2)
	r.ctl.Obs = obs.NewTierMetrics(obs.NewRegistry(r.env.Eng.Now), "sql", "cjdbc")
	m := r.mysql("mysql1")
	r.join("b1", m)
	r.mustExec("CREATE TABLE t (a INT, b TEXT)")
	r.mustExec("INSERT INTO t (a, b) VALUES (1000, 'x')")
	const sql = "SELECT b FROM t WHERE a = 1000"
	prepared, err := sqlengine.Prepare("SELECT b FROM t WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	done := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	parse := testing.AllocsPerRun(200, func() {
		if _, err := sqlengine.Parse(sql); err != nil {
			t.Fatal(err)
		}
	})
	engine := testing.AllocsPerRun(200, func() {
		if n, err := m.DB().CountPrepared(prepared, 1000); n != 1 || err != nil {
			t.Fatal(n, err)
		}
	})
	if engine != 0 {
		t.Errorf("the engine allocates %v objects to count a prepared read, want 0", engine)
	}
	q := legacy.Query{Cost: 0.001, Prepared: prepared, Arg: 1000}
	backend := testing.AllocsPerRun(200, func() {
		m.ExecSQL(q, netsim.ReplyFunc(done))
		r.env.Eng.Run()
	})
	if backend != 0 {
		t.Errorf("the backend allocates %v objects for a prepared read, want 0", backend)
	}
	for _, c := range []struct {
		form  string
		q     legacy.Query
		parse float64
	}{
		{"prepared", q, 0},
		{"text", legacy.Query{SQL: sql, Cost: 0.001}, parse},
	} {
		got := testing.AllocsPerRun(200, func() {
			r.ctl.ExecSQL(c.q, netsim.ReplyFunc(done))
			r.env.Eng.Run()
		})
		if own := got - c.parse - backend; own > 0 {
			t.Errorf("a %s read allocates %v objects (%v parsing, %v in the backend): %v in cjdbc and cluster, want 0", c.form, got, c.parse, backend, own)
		}
	}
}

// A statement the backend rejects is the caller's error, not the backend's
// failure: the server answered. Before, the read was retried on every
// backend, each was dropped in turn, and the tier was gone.
func TestRejectedReadKeepsBackends(t *testing.T) {
	r := newRig(t, 4)
	r.join("b1", r.mysql("mysql1"))
	r.join("b2", r.mysql("mysql2"))
	r.mustExec("CREATE TABLE t (a INT)")
	for _, sql := range []string{"SELECT * FROM nope", "SELECT ghost FROM t", "SELECT * FROM"} {
		err := r.exec(sql)
		if err == nil || errors.Is(err, ErrNoBackend) {
			t.Fatalf("%s: %v", sql, err)
		}
		var rejected *legacy.StatementError
		if !errors.As(err, &rejected) {
			t.Fatalf("%s: %v is not the server's answer", sql, err)
		}
		if r.ctl.ActiveCount() != 2 {
			t.Fatalf("%s left %d active backends, want 2", sql, r.ctl.ActiveCount())
		}
	}
	if err := r.exec("SELECT * FROM nope"); !errors.Is(err, sqlengine.ErrNoSuchTable) {
		t.Fatalf("the cause is lost: %v", err)
	}
	if r.ctl.Failures() != 4 || r.ctl.Reads() != 0 {
		t.Fatalf("failures=%d reads=%d", r.ctl.Failures(), r.ctl.Reads())
	}
	r.mustExec("SELECT * FROM t")
	// A backend that is down is still dropped, and the read retried.
	r.ctl.p.lookup("b1").srv.Node().Fail()
	r.ctl.p.lookup("b2").srv.Node().Fail()
	if err := r.exec("SELECT * FROM t"); err == nil || r.ctl.ActiveCount() != 0 {
		t.Fatalf("read through two dead backends: %v, %d active", err, r.ctl.ActiveCount())
	}
}

// TestRefusedWriteKeepsBackends is the write-side twin of
// TestRejectedReadKeepsBackends: a write every backend refuses (a text
// value into an INT column) is answered with the servers' refusal and
// takes no backend down; its record stays in the log, and a replica that
// joins later replays past it.
func TestRefusedWriteKeepsBackends(t *testing.T) {
	r := newRig(t, 5)
	r.join("b1", r.mysql("mysql1"))
	r.join("b2", r.mysql("mysql2"))
	r.mustExec("CREATE TABLE t (a INT)")
	r.mustExec("INSERT INTO t (a) VALUES (7)")
	err := r.exec("INSERT INTO t (a) VALUES ('text')")
	var rejected *legacy.StatementError
	if !errors.As(err, &rejected) {
		t.Fatalf("refused write answered %v, want the server's refusal", err)
	}
	if r.ctl.ActiveCount() != 2 {
		t.Fatalf("the refused write left %d active backends, want 2", r.ctl.ActiveCount())
	}
	for _, b := range r.ctl.Backends() {
		if b.Applied != 3 {
			t.Fatalf("after the refused write %s has applied %d records, want 3", b.Name, b.Applied)
		}
	}
	if r.ctl.Log().Len() != 3 || r.ctl.Failures() != 1 || r.ctl.Writes() != 3 {
		t.Fatalf("%d logged, %d failures, %d writes", r.ctl.Log().Len(), r.ctl.Failures(), r.ctl.Writes())
	}
	r.mustExec("SELECT * FROM t")
	m3 := r.mysql("mysql3")
	r.join("b3", m3)
	want := r.ctl.p.lookup("b1").srv.DB().Fingerprint()
	if r.ctl.ActiveCount() != 3 {
		t.Fatalf("%d active backends after the join, want 3", r.ctl.ActiveCount())
	}
	for _, b := range r.ctl.Backends() {
		if b.State != Active || b.Applied != 3 || b.Fingerprint != want {
			t.Fatalf("%s is %s at %d with fingerprint %x, want ACTIVE at 3 with %x", b.Name, b.State, b.Applied, b.Fingerprint, want)
		}
	}
	if m3.DB().RowCount("t") != 1 {
		t.Fatalf("the replayed replica holds %d rows, want 1", m3.DB().RowCount("t"))
	}
}

// A query that arrives parsed or prepared is classified by what it is, not
// by its text: an INSERT with no text used to be routed as a read (the
// empty string is no write), parsed again from nothing, and to take every
// backend down. It is a write, logged as the statement it is, and its
// record renders its text; a write with no statement (its text does not
// parse) is refused before it touches anything, and a prepared write is
// logged as the statement it binds to.
func TestSuppliedStatementIsClassifiedAsItIs(t *testing.T) {
	r := newRig(t, 4)
	m1, m2 := r.mysql("mysql1"), r.mysql("mysql2")
	r.join("b1", m1)
	r.join("b2", m2)
	r.mustExec("CREATE TABLE t (a INT)")
	r.mustExec("INSERT INTO t (a) VALUES (7)")
	run := func(q legacy.Query) error {
		t.Helper()
		var got error = errors.New("pending")
		r.ctl.ExecSQL(q, netsim.ReplyFunc(func(err error) { got = err }))
		r.env.Eng.Run()
		return got
	}
	insert, err := sqlengine.Parse("INSERT INTO t (a) VALUES (1)")
	if err != nil {
		t.Fatal(err)
	}
	if err := run(legacy.Query{SQL: "INSERT INTO t VALUES (1)", Cost: 0.001}); err == nil {
		t.Fatal("a write that does not parse was accepted")
	}
	if r.ctl.ActiveCount() != 2 || r.ctl.Log().Len() != 2 || m1.DB().RowCount("t") != 1 {
		t.Fatalf("after the refused write: %d active, %d logged, %d rows", r.ctl.ActiveCount(), r.ctl.Log().Len(), m1.DB().RowCount("t"))
	}
	if err := run(legacy.Query{Stmt: insert, Cost: 0.001}); err != nil {
		t.Fatal(err)
	}
	if rec, _ := r.ctl.Log().At(2); rec.Query.Stmt == nil {
		t.Fatalf("logged %+v", rec.Query)
	} else if text, err := rec.Query.Text(); text != "INSERT INTO t (a) VALUES (1)" || err != nil {
		t.Fatalf("the record renders %q, %v", text, err)
	}
	// A supplied SELECT is executed as supplied, not parsed again.
	sel, err := sqlengine.Parse("SELECT * FROM t WHERE a = 7")
	if err != nil {
		t.Fatal(err)
	}
	if err := run(legacy.Query{SQL: "not SQL at all", Stmt: sel, Cost: 0.001}); err != nil {
		t.Fatal(err)
	}
	upd, err := sqlengine.Prepare("UPDATE t SET a = 8 WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	if err := run(legacy.Query{Prepared: upd, Arg: 7, Cost: 0.001}); err != nil {
		t.Fatal(err)
	}
	rec, _ := r.ctl.Log().At(3)
	want, err := sqlengine.Parse("UPDATE t SET a = 8 WHERE a = 7")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Query.Stmt, want) || rec.Query.Prepared != nil {
		t.Fatalf("logged %+v", rec.Query)
	}
	if r.ctl.Reads() != 1 || r.ctl.Writes() != 4 || r.ctl.ActiveCount() != 2 {
		t.Fatalf("reads=%d writes=%d active=%d", r.ctl.Reads(), r.ctl.Writes(), r.ctl.ActiveCount())
	}
	if m1.DB().RowCount("t") != 2 || m2.DB().RowCount("t") != 2 || !r.ctl.CheckConsistency().Consistent {
		t.Fatalf("rows %d / %d", m1.DB().RowCount("t"), m2.DB().RowCount("t"))
	}
}

// Under the rendezvous policy a read's text is its affinity key, so a
// prepared read and its text go to the same replica; the other policies
// never render it.
func TestRendezvousKeysPreparedReadsByText(t *testing.T) {
	r := newRig(t, 5)
	ms := []*legacy.MySQL{r.mysql("mysql1"), r.mysql("mysql2"), r.mysql("mysql3")}
	for i, m := range ms {
		r.join(fmt.Sprintf("b%d", i+1), m)
	}
	r.mustExec("CREATE TABLE t (a INT)")
	r.ctl.Pool().SetPolicy(selector.Rendezvous)
	p, err := sqlengine.Prepare("SELECT * FROM t WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	served := func() (out [3]uint64) {
		for i, m := range ms {
			out[i] = m.Served()
		}
		return out
	}
	spread := map[[3]uint64]bool{}
	for arg := int64(0); arg < 40; arg++ {
		before := served()
		r.mustExec(fmt.Sprintf("SELECT * FROM t WHERE a = %d", arg))
		text := served()
		var got error = errors.New("pending")
		r.ctl.ExecSQL(legacy.Query{Prepared: p, Arg: arg, Cost: 0.001}, netsim.ReplyFunc(func(err error) { got = err }))
		r.env.Eng.Run()
		if got != nil {
			t.Fatal(got)
		}
		after := served()
		for i := range ms {
			if text[i]-before[i] != after[i]-text[i] {
				t.Fatalf("arg %d: text went %v -> %v, prepared %v -> %v", arg, before, text, text, after)
			}
			before[i] = text[i] - before[i]
		}
		spread[before] = true
	}
	if len(spread) != 3 {
		t.Fatalf("40 keys reached %d of 3 replicas", len(spread))
	}
}
