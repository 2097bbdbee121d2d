package jade_test

import (
	"fmt"
	"log"

	"jade"
	"jade/internal/netsim"
)

// ExampleParseADL validates the built-in three-tier architecture.
func ExampleParseADL() {
	def, err := jade.ParseADL(jade.ThreeTierADL)
	if err != nil {
		log.Fatal(err)
	}
	if err := def.Validate(nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println(def.Name, len(def.AllComponents()), "components", len(def.Bindings), "bindings")
	// Output: rubis-j2ee 4 components 3 bindings
}

// Example_deploy shows the full deployment round trip on a simulated
// cluster: parse, deploy, introspect.
func Example_deploy() {
	p := jade.NewPlatform(jade.DefaultPlatformOptions())
	db, err := jade.DefaultDataset().InitialDatabase(1)
	if err != nil {
		log.Fatal(err)
	}
	p.RegisterDump("rubis", db)
	def, err := jade.ParseADL(jade.ThreeTierADL)
	if err != nil {
		log.Fatal(err)
	}
	var dep *jade.Deployment
	p.Deploy(def, func(d *jade.Deployment, err error) {
		if err != nil {
			log.Fatal(err)
		}
		dep = d
	})
	p.Eng.Run()
	for _, name := range dep.ComponentNames() {
		node, _ := dep.NodeOf(name)
		fmt.Println(name, "on", node.Name())
	}
	// Output:
	// cjdbc1 on node3
	// mysql1 on node4
	// plb1 on node1
	// tomcat1 on node2
}

// Example_selfSizing arms the paper's self-optimization manager and lets
// it resize the application tier under synthetic overload.
func Example_selfSizing() {
	p := jade.NewPlatform(jade.DefaultPlatformOptions())
	db, _ := jade.DefaultDataset().InitialDatabase(1)
	p.RegisterDump("rubis", db)
	def, _ := jade.ParseADL(jade.ThreeTierADL)
	var dep *jade.Deployment
	p.Deploy(def, func(d *jade.Deployment, err error) {
		if err != nil {
			log.Fatal(err)
		}
		dep = d
	})
	p.Eng.Run()

	tier, err := jade.NewAppTier(p, dep, "plb1", "cjdbc1", []string{"tomcat1"})
	if err != nil {
		log.Fatal(err)
	}
	cfg := jade.AppSizingDefaults()
	cfg.Window = 10
	mgr, err := jade.NewSizingManager(p, "self-optimization-app", tier, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := mgr.Loop.Start(); err != nil {
		log.Fatal(err)
	}

	// Saturate the single Tomcat.
	front, _ := dep.FrontEnd()
	tk := p.Eng.Every(1.0/95, "load", func(now float64) {
		front.HandleHTTP(&jade.WebRequest{WebCost: 0.0001, AppCost: 0.01}, netsim.ReplyFunc(func(error) {}))
	})
	p.Eng.RunUntil(p.Eng.Now() + 120)
	tk.Stop()
	fmt.Println("replicas after overload:", tier.ReplicaCount())
	// Output: replicas after overload: 2
}

// ExampleRunSpec demonstrates the grouped configuration API and the
// simulated network: heartbeats from the Tomcat replica to the Jade
// management node are partitioned mid-run, the φ-accrual detector
// wrongly suspects the live replica, and the self-recovery manager
// repairs it — legally, as the double-repair invariant confirms the
// discarded survivor was really terminated.
func ExampleRunSpec() {
	spec := jade.DefaultSpec(1, true)
	spec.Recovery = true
	spec.Workload.Profile = jade.ProfileSpec{Kind: "constant", Clients: 40, DurationSeconds: 240}
	spec.Checks.Invariants = true
	spec.Faults.Network.Enabled = true
	spec.Faults.Chaos = jade.ChaosSchedule{
		{At: 60, Kind: jade.ChaosPartition, Duration: 30, A: []string{"tomcat1"}, B: []string{jade.ManagementEndpoint}},
	}
	r, err := jade.RunSpec(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("false-positive suspicions:", r.Detector.FalsePositives)
	fmt.Println("repairs confirmed legal:", r.RepairsConfirmedLegal)
	fmt.Println("invariant violation:", r.InvariantViolation)
	// Output:
	// false-positive suspicions: 2
	// repairs confirmed legal: 2
	// invariant violation: <nil>
}

// ExampleRunScenario runs a short managed evaluation and reports the
// outcome (deterministic per seed).
func ExampleRunScenario() {
	cfg := jade.DefaultScenario(1, true)
	cfg.Profile = jade.ConstantProfile{Clients: 60, Length: 120}
	r, err := jade.RunScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("failed requests:", r.Stats.Failed)
	fmt.Println("reconfigurations:", r.Reconfigurations)
	// Output:
	// failed requests: 0
	// reconfigurations: 0
}
