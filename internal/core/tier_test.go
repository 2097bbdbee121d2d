package core

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"jade/internal/cjdbc"
	"jade/internal/cluster"
	"jade/internal/legacy"
	"jade/internal/netsim"
)

// tierCase is one row of the actuator table: how the tier is built over
// the three-tier deployment, how its balancer counts members, and the
// actuate.step sequences of one grow and one shrink as literals — the
// order the golden digests pin, readable here.
type tierCase struct {
	name    string
	new     func(p *Platform, dep *Deployment) (*Tier, error)
	members func(dep *Deployment) []string
	replica string // the first replica a grow adds
	grow    []string
	shrink  []string
	// failures are the ways a grow fails when its node crashes under it,
	// one per step the crash can land in.
	failures []string
}

var tierCases = []tierCase{
	{
		name: "application-servers",
		new: func(p *Platform, dep *Deployment) (*Tier, error) {
			return NewAppTier(p, dep, "plb1", "cjdbc1", []string{"tomcat1"})
		},
		members: func(dep *Deployment) []string {
			return dep.MustComponent("plb1").Content().(*BalancerWrapper).Balancer().Members()
		},
		replica: "tomcat-r2",
		grow: []string{
			"node-allocated node=node5",
			"installed package=tomcat replica=tomcat-r2",
			"started replica=tomcat-r2",
			"joined-balancer replica=tomcat-r2",
		},
		shrink: []string{
			"left-balancer replica=tomcat-r2",
			"node-released node=node5 replica=tomcat-r2",
		},
		failures: []string{
			"jade: node node5 failed during installation of tomcat",
			"jade: starting tomcat-r2: legacy: server failed: tomcat-r2",
		},
	},
	{
		name: "database-backends",
		new: func(p *Platform, dep *Deployment) (*Tier, error) {
			return NewDBTier(p, dep, "cjdbc1", []string{"mysql1"})
		},
		members: func(dep *Deployment) []string {
			var out []string
			for _, b := range dep.MustComponent("cjdbc1").Content().(*CJDBCWrapper).Controller().Backends() {
				if b.State != cjdbc.Dead {
					out = append(out, b.Name)
				}
			}
			return out
		},
		replica: "mysql-r2",
		grow: []string{
			"node-allocated node=node5",
			"installed package=mysql replica=mysql-r2",
			"state-transferred replica=mysql-r2 log-index=0",
			"started replica=mysql-r2",
			"joined-backend replica=mysql-r2",
		},
		shrink: []string{
			"left-backend replica=mysql-r2 checkpoint=0",
			"node-released node=node5 replica=mysql-r2",
		},
		failures: []string{
			"cjdbc: backend mysql-r2 died during sync: legacy: server failed: mysql mysql-r2",
			"jade: node node5 failed during installation of mysql",
			"jade: starting mysql-r2: legacy: server failed: mysql-r2",
			"jade: starting mysql-r2: legacy: server failed: node node5 is down", // during the state transfer
		},
	},
}

// eachTier runs fn once per row of the table on a fresh deployment.
func eachTier(t *testing.T, fn func(t *testing.T, tc tierCase, p *Platform, dep *Deployment, tier *Tier)) {
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			p, dep := deployThreeTier(t)
			tier, err := tc.new(p, dep)
			if err != nil {
				t.Fatal(err)
			}
			fn(t, tc, p, dep, tier)
		})
	}
}

// steps renders the actuate.step events recorded so far, fields included.
func steps(p *Platform) []string {
	var out []string
	for _, ev := range p.Trace().ByKind("actuate.step") {
		line := ev.Name
		for _, f := range ev.Fields {
			line += " " + f.Key + "=" + f.Value()
		}
		out = append(out, line)
	}
	return out
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return reflect.DeepEqual(a, b)
}

// actuate runs one grow or shrink to completion and returns its outcome;
// while it is in flight the tier must refuse every other actuation.
func actuate(t *testing.T, p *Platform, tier *Tier, act func(func(error))) error {
	t.Helper()
	err := errors.New("actuation never completed")
	act(func(e error) { err = e })
	if tier.Reconfiguring() {
		for _, other := range []func(func(error)){tier.Grow, tier.Shrink} {
			var busy error
			other(func(e error) { busy = e })
			if !errors.Is(busy, ErrTierBusy) {
				t.Fatalf("actuation during an actuation: %v, want ErrTierBusy", busy)
			}
		}
		if tier.CanGrow() || tier.CanShrink() {
			t.Fatal("CanGrow/CanShrink while reconfiguring")
		}
	}
	p.Eng.Run()
	if tier.Reconfiguring() {
		t.Fatal("tier left busy after the actuation")
	}
	return err
}

// TestTierGrowAndShrinkSteps is what both tiers' actuators share, from one
// table: the step sequence, membership, node accounting, the reconfigured
// events, and the busy / at-max / at-min refusals.
func TestTierGrowAndShrinkSteps(t *testing.T) {
	eachTier(t, func(t *testing.T, tc tierCase, p *Platform, dep *Deployment, tier *Tier) {
		if tier.TierName() != tc.name {
			t.Fatalf("tier name = %q", tier.TierName())
		}
		var events []string
		p.OnReconfiguration(func(_ float64, ev string) { events = append(events, ev) })

		if err := actuate(t, p, tier, tier.Grow); err != nil {
			t.Fatal(err)
		}
		if got := steps(p); !reflect.DeepEqual(got, tc.grow) {
			t.Fatalf("grow steps:\n got %q\nwant %q", got, tc.grow)
		}
		want := []string{tier.ReplicaNames()[0], tc.replica}
		if got := tier.ReplicaNames(); !reflect.DeepEqual(got, want) {
			t.Fatalf("replicas after grow = %v, want %v", got, want)
		}
		if got := tc.members(dep); !sameSet(got, want) {
			t.Fatalf("balancer members after grow = %v, want %v", got, want)
		}
		if n := tier.NodeOf(tc.replica); n == nil || n.Name() != "node5" || p.Pool.AllocatedCount() != 5 {
			t.Fatalf("new replica on %v, %d nodes allocated", n, p.Pool.AllocatedCount())
		}

		if err := actuate(t, p, tier, tier.Shrink); err != nil {
			t.Fatal(err)
		}
		if got := steps(p)[len(tc.grow):]; !reflect.DeepEqual(got, tc.shrink) {
			t.Fatalf("shrink steps:\n got %q\nwant %q", got, tc.shrink)
		}
		if got := tc.members(dep); !sameSet(got, want[:1]) || tier.ReplicaCount() != 1 {
			t.Fatalf("after shrink: members %v, %d replicas", got, tier.ReplicaCount())
		}
		if p.Pool.AllocatedCount() != 4 || tier.NodeOf(tc.replica) != nil {
			t.Fatalf("allocated = %d after shrink", p.Pool.AllocatedCount())
		}
		if _, err := dep.Component(tc.replica); err == nil {
			t.Fatalf("%s still deployed after shrink", tc.replica)
		}
		if want := []string{tc.name + ":grow", tc.name + ":shrink"}; !reflect.DeepEqual(events, want) {
			t.Fatalf("reconfigured events = %v, want %v", events, want)
		}

		// Refusals open no span and change nothing.
		if err := actuate(t, p, tier, tier.Shrink); !errors.Is(err, ErrTierAtMin) {
			t.Fatalf("shrink below min: %v", err)
		}
		tier.MaxReplicas = 1
		if err := actuate(t, p, tier, tier.Grow); !errors.Is(err, ErrTierAtMax) {
			t.Fatalf("grow at max: %v", err)
		}
		if got := len(steps(p)); got != len(tc.grow)+len(tc.shrink) || len(events) != 2 {
			t.Fatalf("refused actuations left %d steps, %d events", got, len(events))
		}
		// The next replica takes the next name: a name is never reused.
		tier.MaxReplicas = 0
		if err := actuate(t, p, tier, tier.Grow); err != nil {
			t.Fatal(err)
		}
		if got := tier.ReplicaNames()[1]; got != strings.TrimSuffix(tc.replica, "2")+"3" {
			t.Fatalf("second grow named its replica %s", got)
		}
	})
}

func TestTierNodesTracksMembership(t *testing.T) {
	eachTier(t, func(t *testing.T, _ tierCase, p *Platform, _ *Deployment, tier *Tier) {
		if got := len(tier.Nodes()); got != 1 {
			t.Fatalf("nodes = %d", got)
		}
		if err := actuate(t, p, tier, tier.Grow); err != nil {
			t.Fatal(err)
		}
		nodes := tier.Nodes()
		if len(nodes) != 2 {
			t.Fatalf("nodes after grow = %d", len(nodes))
		}
		seen := map[*cluster.Node]bool{}
		for i, n := range nodes {
			if seen[n] {
				t.Fatal("duplicate node in tier")
			}
			seen[n] = true
			if tier.NodeOf(tier.ReplicaNames()[i]) != n {
				t.Fatalf("NodeOf(%s) disagrees with Nodes()[%d]", tier.ReplicaNames()[i], i)
			}
		}
		if tier.NodeOf("ghost") != nil {
			t.Fatal("NodeOf invents a node for an unknown replica")
		}
	})
}

func TestGrowRespectsMaxReplicas(t *testing.T) {
	eachTier(t, func(t *testing.T, _ tierCase, p *Platform, _ *Deployment, tier *Tier) {
		tier.MaxReplicas = 1
		if tier.CanGrow() {
			t.Fatal("CanGrow at max")
		}
		var gerr error
		tier.Grow(func(err error) { gerr = err })
		p.Eng.Run()
		if !errors.Is(gerr, ErrTierAtMax) {
			t.Fatalf("grow at max: %v", gerr)
		}
	})
}

func TestGrowFailsGracefullyOnEmptyPool(t *testing.T) {
	eachTier(t, func(t *testing.T, _ tierCase, p *Platform, _ *Deployment, tier *Tier) {
		// Drain the pool.
		for {
			if _, err := p.Pool.Allocate(); err != nil {
				break
			}
		}
		if tier.CanGrow() {
			t.Fatal("CanGrow with empty pool")
		}
		var gerr error
		tier.Grow(func(err error) { gerr = err })
		p.Eng.Run()
		if !errors.Is(gerr, cluster.ErrPoolExhausted) {
			t.Fatalf("grow with empty pool: %v", gerr)
		}
		// The tier is intact and not stuck busy.
		if tier.ReplicaCount() != 1 {
			t.Fatalf("tier state corrupted: %d replicas", tier.ReplicaCount())
		}
		if tier.busy {
			t.Fatal("tier left busy after failed grow")
		}
		// A reactor facing the same situation simply does nothing.
		r := NewThresholdReactor(p, tier, 0.3, 0.8, nil)
		r.React(p.Eng.Now(), 0.99)
		p.Eng.Run()
		if r.Grows != 0 {
			t.Fatal("reactor grew with an empty pool")
		}
	})
}

// requireNothingLeftBehind is the contract of a failed grow: the node is
// back in the pool and off the management footprint, the deployment holds
// nothing but its own components and the tier's replicas, the balancer no
// member the tier does not list, and the tier is free to actuate again.
func requireNothingLeftBehind(t *testing.T, tc tierCase, p *Platform, dep *Deployment, tier *Tier, node *cluster.Node, own []string, allocated int) {
	t.Helper()
	if got := p.Pool.AllocatedCount(); got != allocated {
		t.Fatalf("%d nodes allocated after the failed grow, %d before it", got, allocated)
	}
	if p.mgmtNodes[node.Name()] {
		t.Fatalf("released %s still carries the management footprint", node.Name())
	}
	if got := dep.ComponentNames(); !reflect.DeepEqual(got, own) {
		t.Fatalf("components after the failed grow = %v, want %v", got, own)
	}
	if got := tc.members(dep); !sameSet(got, tier.ReplicaNames()) {
		t.Fatalf("balancer members after the failed grow = %v, replicas %v", got, tier.ReplicaNames())
	}
	if tier.Reconfiguring() {
		t.Fatal("tier left busy after the failed grow")
	}
}

// TestGrowFailureLeavesNothingBehind crashes the node a grow has just
// allocated at every half second across the actuation. For the database
// tier writes keep flowing after the snapshot, so the §4.1 log replay
// takes seconds and the crash can land inside it.
func TestGrowFailureLeavesNothingBehind(t *testing.T) {
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			failures := map[string]bool{}
			for off := 0.5; off <= 30; off += 0.5 {
				p, dep := deployThreeTier(t)
				tier, err := tc.new(p, dep)
				if err != nil {
					t.Fatal(err)
				}
				own, allocated := dep.ComponentNames(), p.Pool.AllocatedCount()
				gerr := errors.New("grow never completed")
				tier.Grow(func(err error) { gerr = err })
				node := p.Pool.Allocated()[allocated] // node5: the pool hands out the lowest free name
				p.Eng.After(off, "crash", node.Fail)
				p.Eng.After(8.5, "writes", func() {
					front := dep.MustComponent("plb1").Content().(*BalancerWrapper).Balancer()
					for i := 0; i < 100; i++ {
						front.HandleHTTP(&legacy.WebRequest{WebCost: 0.0001, AppCost: 0.0001, Queries: []legacy.Query{{
							SQL:  "INSERT INTO buy_now (id, buyer_id, item_id, qty, date) VALUES (" + itoa(i) + ", 1, 1, 1, 0)",
							Cost: 0.05,
						}}}, netsim.ReplyFunc(func(error) {}))
					}
				})
				p.Eng.Run()
				if gerr == nil {
					continue // the crash came after the grow was done
				}
				failures[gerr.Error()] = true
				requireNothingLeftBehind(t, tc, p, dep, tier, node, own, allocated)
				if err := actuate(t, p, tier, tier.Grow); err != nil {
					t.Fatalf("grow after the failed grow (crash at +%.1f s: %v): %v", off, gerr, err)
				}
			}
			var seen []string
			for msg := range failures {
				seen = append(seen, msg)
			}
			sort.Strings(seen)
			if !reflect.DeepEqual(seen, tc.failures) {
				t.Fatalf("the crashes failed the grow in these ways:\n got %q\nwant %q", seen, tc.failures)
			}
		})
	}
}

// TestGrowFailureReleasesManagementFootprint fails a grow past the wrapper
// factory on a node that stays alive (no room left for the server process),
// where the footprint is visible in the node's memory: the released node
// holds the installed package and nothing else, and the next tenant is
// charged the footprint again.
func TestGrowFailureReleasesManagementFootprint(t *testing.T) {
	eachTier(t, func(t *testing.T, tc tierCase, p *Platform, dep *Deployment, tier *Tier) {
		own, allocated := dep.ComponentNames(), p.Pool.AllocatedCount()
		node, _ := p.Pool.Lookup("node5")
		hog := p.opts.NodeConfig.MemoryMB - 100
		if err := node.AllocMemory(hog); err != nil {
			t.Fatal(err)
		}
		err := actuate(t, p, tier, tier.Grow)
		if !errors.Is(err, cluster.ErrOutOfMemory) {
			t.Fatalf("grow onto a full node: %v", err)
		}
		requireNothingLeftBehind(t, tc, p, dep, tier, node, own, allocated)
		pkg := node.MemoryUsed() - hog
		if want := map[string]float64{"application-servers": 30, "database-backends": 20}[tc.name]; pkg != want {
			t.Fatalf("released node holds %v MB beyond the hog, want the %v MB package alone", pkg, want)
		}
		node.FreeMemory(hog)
		if err := actuate(t, p, tier, tier.Grow); err != nil {
			t.Fatal(err)
		}
		if n := tier.NodeOf(tier.ReplicaNames()[1]); n != node || !p.mgmtNodes[node.Name()] {
			t.Fatalf("next tenant of %s (on %v) is not charged the management footprint", node.Name(), n)
		}
		proc := map[string]float64{"application-servers": legacy.DefaultTomcatOptions().MemoryMB,
			"database-backends": legacy.DefaultMySQLOptions().MemoryMB}[tc.name]
		if got, want := node.MemoryUsed(), pkg+proc+p.opts.ManagementMemoryMB; got != want {
			t.Fatalf("node memory = %v MB, want package + process + footprint = %v", got, want)
		}
	})
}
