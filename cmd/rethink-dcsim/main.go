// Command rethink-dcsim runs datacenter network scenarios: a traffic
// pattern over a chosen topology and fabric generation, with optional SDN
// control-plane accounting and link-failure injection.
//
// Usage:
//
//	rethink-dcsim -topo leafspine -fabric 100 -pattern alltoall -bytes 1e8
//	rethink-dcsim -topo fattree -k 8 -pattern incast -sdn -fail 3
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sdn"
	"repro/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rethink-dcsim: ")
	topoName := flag.String("topo", "leafspine", "topology: leafspine|fattree|torus")
	k := flag.Int("k", 4, "fat-tree arity (fattree only)")
	leaves := flag.Int("leaves", 4, "leaf switches (leafspine only)")
	spines := flag.Int("spines", 2, "spine switches (leafspine only)")
	hostsPerLeaf := flag.Int("hosts-per-leaf", 4, "hosts per leaf (leafspine only)")
	fabric := flag.Float64("fabric", 40, "fabric speed in Gbps (10|40|100|400)")
	pattern := flag.String("pattern", "alltoall", "traffic: alltoall|incast|pairs")
	bytes := flag.Float64("bytes", 1e8, "bytes per flow")
	useSDN := flag.Bool("sdn", false, "route through an SDN controller and report control-plane stats")
	fail := flag.Int("fail", -1, "fail this link ID after routing (requires -sdn)")
	flag.Parse()

	var net *topo.Network
	switch *topoName {
	case "leafspine":
		net = topo.LeafSpine(topo.LeafSpineSpec{
			Leaves: *leaves, Spines: *spines, HostsPerLeaf: *hostsPerLeaf,
			HostSpeed: topo.Gen10, FabricSpeed: topo.GbE(*fabric),
		})
	case "fattree":
		net = topo.FatTree(*k, topo.GbE(*fabric))
	case "torus":
		net = topo.Torus2D(4, 4, topo.GbE(*fabric))
	default:
		log.Fatalf("unknown topology %q", *topoName)
	}
	hosts := net.Hosts()
	fmt.Printf("topology: %s — %d hosts, %d switches, %d links, fabric %.0f Gbps\n",
		*topoName, len(hosts), len(net.Switches()), len(net.Links), *fabric)

	var pairs [][2]int
	switch *pattern {
	case "alltoall":
		for _, s := range hosts {
			for _, d := range hosts {
				if s != d {
					pairs = append(pairs, [2]int{s, d})
				}
			}
		}
	case "incast":
		sink := hosts[0]
		for _, s := range hosts[1:] {
			pairs = append(pairs, [2]int{s, sink})
		}
	case "pairs":
		for i := 0; i+1 < len(hosts); i += 2 {
			pairs = append(pairs, [2]int{hosts[i], hosts[i+1]})
		}
	default:
		log.Fatalf("unknown pattern %q", *pattern)
	}

	if *useSDN {
		c := sdn.NewController(net, sdn.Reactive, 0)
		worst := 0.0
		for _, p := range pairs {
			lat, err := c.FlowSetupUS(p[0], p[1])
			if err != nil {
				log.Fatal(err)
			}
			if lat > worst {
				worst = lat
			}
		}
		fmt.Printf("sdn: %d rules installed, %d control ops, worst flow-setup %.0f µs\n",
			c.TotalRules(), c.ControlOps, worst)
		if *fail >= 0 {
			rerouted, err := c.FailLink(*fail)
			if err != nil {
				log.Fatalf("link %d failure: %v", *fail, err)
			}
			fmt.Printf("sdn: link %d failed, %d flows rerouted\n", *fail, rerouted)
		}
	}

	s := netsim.NewSimulator(net)
	for _, p := range pairs {
		if _, err := s.StartFlow(p[0], p[1], *bytes); err != nil {
			log.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	fct := s.FCTs()
	t := metrics.NewTable(fmt.Sprintf("%d flows × %s", fct.N(), metrics.FormatBytes(*bytes)),
		"metric", "seconds")
	t.AddRowf("mean FCT", fct.Mean())
	t.AddRowf("p50", fct.P50())
	t.AddRowf("p99", fct.P99())
	t.AddRowf("max", fct.Max())
	fmt.Print(t.Render())
	fmt.Printf("mean link utilization: %.3f\n", s.MeanLinkUtilization())
}
