package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nfv"
	"repro/internal/sdn"
	"repro/internal/topo"
)

// E2 measures control-plane scale: operator actions and wall-clock to
// apply a fabric-wide change, SDN controller versus per-box management, as
// the fabric grows toward the "10,000 switches" regime.
func E2() *Report {
	r := newReport("E2", "SDN control-plane scaling",
		`Section IV.A.2: "a software control plane ... can make 10,000 switches look like one"`)
	tab := metrics.NewTable("Fabric-wide policy change: SDN vs per-box",
		"switches", "sdn ops", "legacy ops", "sdn reconfig (s)", "legacy reconfig (s, 4 operators)")
	fig := metrics.NewFigure("Operator actions vs fabric size")
	sdnLine := fig.Line("sdn")
	legacyLine := fig.Line("per-box")
	var lastSDNOps, lastLegacyOps float64
	for _, k := range []int{4, 8, 16, 32} {
		net := topo.FatTree(k, topo.Gen40)
		switches := len(net.Switches())
		c := sdn.NewController(net, sdn.Reactive, 0)
		hosts := net.Hosts()
		before := c.ControlOps
		lat, err := c.FlowSetupUS(hosts[0], hosts[len(hosts)-1])
		if err != nil {
			panic(err)
		}
		sdnOps := float64(c.ControlOps - before)
		legacy := sdn.NewLegacyFabric(net)
		legacyS := legacy.ApplyPolicy(4) / 1e6
		tab.AddRowf(switches, sdnOps, legacy.ControlOps, lat/1e6, legacyS)
		sdnLine.Add(float64(switches), sdnOps)
		legacyLine.Add(float64(switches), float64(legacy.ControlOps))
		lastSDNOps, lastLegacyOps = sdnOps, float64(legacy.ControlOps)
	}
	r.Tables = append(r.Tables, tab)
	r.Figures = append(r.Figures, fig)
	r.Key["sdn_ops_at_max"] = lastSDNOps
	r.Key["legacy_ops_at_max"] = lastLegacyOps
	r.Key["ops_ratio"] = lastLegacyOps / lastSDNOps
	return r
}

// E3 sweeps the fabric Ethernet generation under an all-to-all shuffle on
// a leaf-spine and reports flow completion times.
func E3() *Report {
	r := newReport("E3", "Ethernet generation sweep (10→400 GbE)",
		"Sections IV.A.1/3 and Recommendations 1, 3: bandwidth generations gate Big Data shuffles")
	tab := metrics.NewTable("All-to-all shuffle (16 hosts × 100 MB) on leaf-spine",
		"fabric", "max FCT (s)", "mean FCT (s)", "speedup vs 10GbE")
	fig := metrics.NewFigure("Shuffle completion vs fabric generation")
	line := fig.Line("max FCT (s)")
	base := 0.0
	for _, gen := range []topo.GbE{topo.Gen10, topo.Gen40, topo.Gen100, topo.Gen400} {
		net := topo.LeafSpine(topo.LeafSpineSpec{
			Leaves: 4, Spines: 2, HostsPerLeaf: 4,
			HostSpeed: topo.Gen40, FabricSpeed: gen,
		})
		s := netsim.NewSimulator(net)
		hosts := net.Hosts()
		for _, src := range hosts {
			for _, dst := range hosts {
				if src != dst {
					if _, err := s.StartFlow(src, dst, 1e8); err != nil {
						panic(err)
					}
				}
			}
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
		maxFCT := s.FCTs().Max()
		if gen == topo.Gen10 {
			base = maxFCT
		}
		tab.AddRowf(fmt.Sprintf("%gGbE", float64(gen)), maxFCT, s.FCTs().Mean(), base/maxFCT)
		line.Add(float64(gen), maxFCT)
		r.Key[fmt.Sprintf("maxfct_%g", float64(gen))] = maxFCT
	}
	r.Tables = append(r.Tables, tab)
	r.Figures = append(r.Figures, fig)
	r.Key["speedup_400_vs_10"] = r.Key["maxfct_10"] / r.Key["maxfct_400"]
	return r
}

// E15 compares a firewall→DPI→LB service chain as hardware appliances,
// software NFV, and NFV with SmartNIC/FPGA offload.
func E15() *Report {
	r := newReport("E15", "NFV softwarization",
		"Section IV.A.2: NFV implements functions in software for control, flexibility and scalability — at a performance cost hardware offload wins back")
	fns := []nfv.Function{nfv.Firewall, nfv.DPI, nfv.LoadBalancer}
	lambda := 2e6 // 2 Mpps offered

	hwc := nfv.NewApplianceChain("appliance", 5, fns...)
	swc := nfv.NewSoftwareChain("nfv", 8, 5, fns...)
	if _, err := swc.AutoScale(lambda, 0.7); err != nil {
		panic(err)
	}
	off := nfv.NewSoftwareChain("nfv", 8, 5, fns...).OffloadAll()
	if _, err := off.AutoScale(lambda, 0.7); err != nil {
		panic(err)
	}

	tab := metrics.NewTable("Service chain at 2 Mpps (firewall → dpi → lb)",
		"implementation", "capacity (Mpps)", "latency (µs)", "price (kEUR)", "deploy lead time (days)")
	for _, c := range []*nfv.Chain{hwc, swc, off} {
		lat, err := c.LatencyUS(lambda)
		if err != nil {
			panic(err)
		}
		price := c.PriceEUR(8000, 32, 2000) / 1000
		tab.AddRowf(c.Name, c.CapacityPPS()/1e6, lat, price, c.DeployDays())
		r.Key["latency_"+c.Name] = lat
		r.Key["price_"+c.Name] = price
	}
	r.Tables = append(r.Tables, tab)
	r.Key["price_ratio_hw_vs_sw"] = r.Key["price_appliance"] / r.Key["price_nfv"]
	return r
}

// AblationFairness compares max-min progressive filling against the
// single-pass proportional heuristic. The distinguishing scenario: a flow
// throttled elsewhere (slow access link) shares a fast link with an
// unconstrained flow. Max-min redistributes the throttled flow's unused
// share; the proportional pass strands it.
func AblationFairness() *Report {
	r := newReport("ABL-fairness", "Bandwidth sharing ablation",
		"DESIGN.md: max-min progressive filling vs proportional share in netsim")
	build := func() *topo.Network {
		n := topo.New()
		a := n.AddNode(topo.Host, "a") // behind a 2 Gbps access link
		m := n.AddNode(topo.ToR, "m")
		b := n.AddNode(topo.Host, "b")
		c := n.AddNode(topo.Host, "c") // fat uplink
		n.AddLink(a, m, topo.GbE(2), 0)
		n.AddLink(m, b, topo.Gen10, 0)
		n.AddLink(c, m, topo.Gen40, 0)
		return n
	}
	run := func(mode netsim.Fairness) (meanFCT float64) {
		s := netsim.NewSimulator(build())
		s.Fairness = mode
		// a->b is access-limited to 2 Gbps; c->b should receive the
		// remaining 8 Gbps of the m->b link under max-min.
		if _, err := s.StartFlow(0, 2, 1.25e9); err != nil {
			panic(err)
		}
		if _, err := s.StartFlow(3, 2, 1.25e9); err != nil {
			panic(err)
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
		return s.FCTs().Mean()
	}
	mm := run(netsim.MaxMin)
	pr := run(netsim.Proportional)
	tab := metrics.NewTable("Fairness ablation (constrained + unconstrained flow)",
		"policy", "mean FCT (s)")
	tab.AddRowf("max-min", mm)
	tab.AddRowf("proportional", pr)
	r.Tables = append(r.Tables, tab)
	r.Key["maxmin_fct"] = mm
	r.Key["proportional_fct"] = pr
	r.Key["stranding_penalty"] = pr/mm - 1
	return r
}

// AblationSDNMode compares reactive and proactive rule installation.
func AblationSDNMode() *Report {
	r := newReport("ABL-sdnmode", "Reactive vs proactive SDN",
		"DESIGN.md: reactive punts pay a first-packet tax; proactive burns table space up front")
	net := topo.LeafSpine(topo.LeafSpineSpec{
		Leaves: 4, Spines: 2, HostsPerLeaf: 4,
		HostSpeed: topo.Gen10, FabricSpeed: topo.Gen40,
	})
	hosts := net.Hosts()
	var pairs [][2]int
	for _, s := range hosts {
		for _, d := range hosts {
			if s != d {
				pairs = append(pairs, [2]int{s, d})
			}
		}
	}

	reactive := sdn.NewController(net, sdn.Reactive, 0)
	var worst float64
	for _, p := range pairs {
		lat, err := reactive.FlowSetupUS(p[0], p[1])
		if err != nil {
			panic(err)
		}
		if lat > worst {
			worst = lat
		}
	}

	net2 := topo.LeafSpine(topo.LeafSpineSpec{
		Leaves: 4, Spines: 2, HostsPerLeaf: 4,
		HostSpeed: topo.Gen10, FabricSpeed: topo.Gen40,
	})
	proactive := sdn.NewController(net2, sdn.Proactive, 0)
	preUS, err := proactive.Preinstall(pairs)
	if err != nil {
		panic(err)
	}
	tab := metrics.NewTable("SDN mode ablation", "mode", "first-packet tax (µs)", "preload time (µs)", "rules installed")
	tab.AddRowf("reactive", worst, 0.0, reactive.TotalRules())
	lat0, err := proactive.FlowSetupUS(hosts[0], hosts[1])
	if err != nil {
		panic(err)
	}
	tab.AddRowf("proactive", lat0, preUS, proactive.TotalRules())
	r.Tables = append(r.Tables, tab)
	r.Key["reactive_first_packet_us"] = worst
	r.Key["proactive_first_packet_us"] = lat0
	r.Key["proactive_rules"] = float64(proactive.TotalRules())
	return r
}
