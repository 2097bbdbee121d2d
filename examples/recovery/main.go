// Recovery: the self-recovery autonomic manager (Fig. 3 of the paper;
// detailed in the authors' SRDS'05 companion paper). A steady workload
// runs against the three-tier deployment; at t=100 s the node hosting
// tomcat1 crashes. The failure detector notices the dead replica, the
// repair reactor allocates a fresh node, reinstalls Tomcat through the
// Software Installation Service, rebinds the new replica to the load
// balancer, and service resumes — without human intervention.
package main

import (
	"flag"
	"fmt"
	"log"

	"jade"
)

func main() {
	seed := flag.Int64("seed", 3, "simulation seed")
	clients := flag.Int("clients", 60, "steady client population")
	flag.Parse()

	cfg := jade.DefaultScenario(*seed, true)
	cfg.Recovery = true
	cfg.Profile = jade.ConstantProfile{Clients: *clients, Length: 400}
	cfg.Chaos = jade.ChaosSchedule{{At: 100, Kind: jade.ChaosCrash, Target: "tomcat1"}}
	cfg.Logf = func(format string, args ...any) {
		fmt.Printf("  jade: "+format+"\n", args...)
	}

	fmt.Printf("steady workload of %d clients; killing tomcat1's node at t=100s\n\n", *clients)
	r, err := jade.RunScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("repairs completed:   %d\n", r.Repairs)
	fmt.Printf("requests completed:  %d\n", r.Stats.Completed)
	fmt.Printf("requests failed:     %d (the outage window while the replica is rebuilt)\n", r.Stats.Failed)
	s := r.Stats.LatencySummary()
	fmt.Printf("latency:             mean %.0f ms, p99 %.0f ms\n", s.Mean*1000, s.P99*1000)
	fmt.Println()
	fmt.Println("final management layer:")
	fmt.Println(r.Deployment.Describe())
}
