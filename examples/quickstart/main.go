// Quickstart: a five-minute tour of the toolkit. It builds a small
// leaf-spine datacenter, runs a shuffle over it, offloads an analytics
// kernel onto the device catalog, asks the roadmap engine for the top
// recommendation, and prints each result.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/survey"
	"repro/internal/topo"
)

func main() {
	log.SetFlags(0)

	// 1. A datacenter fabric and a shuffle over it.
	net := topo.LeafSpine(topo.LeafSpineSpec{
		Leaves: 2, Spines: 2, HostsPerLeaf: 4,
		HostSpeed: topo.Gen10, FabricSpeed: topo.Gen40,
	})
	sim := netsim.NewSimulator(net)
	hosts := net.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst {
				if _, err := sim.StartFlow(src, dst, 1e7); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	if err := sim.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shuffle: %d flows, mean FCT %.3fs, max %.3fs\n",
		sim.FCTs().N(), sim.FCTs().Mean(), sim.FCTs().Max())

	// 2. An analytics kernel on the heterogeneous device catalog.
	k := hw.Kernel{Name: "feature-extract", Ops: 5e9, Bytes: 1e8, ParallelFraction: 0.98}
	node := hw.KitchenSinkNode()
	best, speedup := node.BestDevice(k)
	fmt.Printf("kernel %q: best device %s, %.1fx over the host CPU\n", k.Name, best.Name, speedup)

	// 3. The roadmap itself: synthesize the evidence base and ask for the
	// highest-priority recommendation.
	corpus, err := survey.Synthesize(survey.DefaultSpec(2016))
	if err != nil {
		log.Fatal(err)
	}
	roadmap, err := core.BuildRoadmap(corpus, 2016)
	if err != nil {
		log.Fatal(err)
	}
	top := roadmap.Recommendations[0]
	fmt.Printf("top recommendation: #%d %q (priority %.2f, %s)\n",
		top.ID, top.Title, top.Priority, top.Horizon)
}
