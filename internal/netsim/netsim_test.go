package netsim

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

func singleLinkNet() *topo.Network {
	n := topo.New()
	a := n.AddNode(topo.Host, "a")
	b := n.AddNode(topo.Host, "b")
	n.AddLink(a, b, topo.Gen10, 0)
	return n
}

func TestSingleFlowUsesFullLink(t *testing.T) {
	s := NewSimulator(singleLinkNet())
	bytes := 1.25e9 // exactly one second at 10 GbE
	f, err := s.StartFlow(0, 1, bytes)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !f.Done {
		t.Fatal("flow did not finish")
	}
	if math.Abs(f.FCT()-1.0) > 1e-6 {
		t.Fatalf("FCT = %v, want ~1s", f.FCT())
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	s := NewSimulator(singleLinkNet())
	bytes := 1.25e9
	f1, _ := s.StartFlow(0, 1, bytes)
	f2, _ := s.StartFlow(0, 1, bytes)
	s.Run()
	// Two equal flows sharing one link: both finish at ~2s.
	if math.Abs(f1.FCT()-2.0) > 1e-6 || math.Abs(f2.FCT()-2.0) > 1e-6 {
		t.Fatalf("FCTs = %v, %v; want ~2s each", f1.FCT(), f2.FCT())
	}
}

func TestShortFlowFreesCapacity(t *testing.T) {
	s := NewSimulator(singleLinkNet())
	long, _ := s.StartFlow(0, 1, 1.25e9)  // 1s alone
	short, _ := s.StartFlow(0, 1, 1.25e8) // 0.1s alone
	s.Run()
	// Shared until the short one finishes at 0.2s; the long one then gets
	// the whole link: 1.25e9-0.125e9 remaining / full rate = 0.9s more.
	if math.Abs(short.FCT()-0.2) > 1e-6 {
		t.Fatalf("short FCT = %v, want 0.2", short.FCT())
	}
	if math.Abs(long.FCT()-1.1) > 1e-6 {
		t.Fatalf("long FCT = %v, want 1.1", long.FCT())
	}
}

func TestReverseDirectionsIndependent(t *testing.T) {
	s := NewSimulator(singleLinkNet())
	f1, _ := s.StartFlow(0, 1, 1.25e9)
	f2, _ := s.StartFlow(1, 0, 1.25e9)
	s.Run()
	// Full duplex: both directions carry the full 10 GbE.
	if math.Abs(f1.FCT()-1.0) > 1e-6 || math.Abs(f2.FCT()-1.0) > 1e-6 {
		t.Fatalf("FCTs = %v, %v; want ~1s each (full duplex)", f1.FCT(), f2.FCT())
	}
}

func TestMaxMinBeatsProportionalOnAsymmetry(t *testing.T) {
	// Two-hop chain a--m--b where one flow crosses both links and one flow
	// uses only the second link. Max-min gives the single-link flow the
	// leftover capacity; proportional strands it.
	build := func() *topo.Network {
		n := topo.New()
		a := n.AddNode(topo.Host, "a")
		m := n.AddNode(topo.ToR, "m")
		b := n.AddNode(topo.Host, "b")
		c := n.AddNode(topo.Host, "c")
		n.AddLink(a, m, topo.Gen10, 0)
		n.AddLink(m, b, topo.Gen10, 0)
		n.AddLink(c, m, topo.Gen40, 0) // c has a fat uplink
		return n
	}
	run := func(mode Fairness) float64 {
		s := NewSimulator(build())
		s.Fairness = mode
		// Flow 1: a->b crosses the 10G chain. Flow 2: c->b shares only m->b.
		s.StartFlow(0, 2, 1.25e9)
		s.StartFlow(3, 2, 1.25e9)
		s.Run()
		return s.FCTs().Max()
	}
	mm := run(MaxMin)
	pr := run(Proportional)
	if mm > pr+1e-9 {
		t.Fatalf("max-min slower than proportional: %v vs %v", mm, pr)
	}
}

func TestLeafSpineShuffleCompletes(t *testing.T) {
	net := topo.LeafSpine(topo.LeafSpineSpec{Leaves: 4, Spines: 2, HostsPerLeaf: 4, HostSpeed: topo.Gen10, FabricSpeed: topo.Gen40})
	s := NewSimulator(net)
	hosts := net.Hosts()
	// all-to-all shuffle of 10 MB
	count := 0
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst {
				if _, err := s.StartFlow(src, dst, 1e7); err != nil {
					t.Fatal(err)
				}
				count++
			}
		}
	}
	s.Run()
	if s.FCTs().N() != count {
		t.Fatalf("completed %d of %d flows", s.FCTs().N(), count)
	}
	if s.ActiveFlows() != 0 {
		t.Fatalf("%d flows still active", s.ActiveFlows())
	}
	if s.BytesDelivered() != float64(count)*1e7 {
		t.Fatalf("bytes = %v", s.BytesDelivered())
	}
}

func TestFasterFabricShortensShuffle(t *testing.T) {
	run := func(fabric topo.GbE) float64 {
		net := topo.LeafSpine(topo.LeafSpineSpec{Leaves: 4, Spines: 2, HostsPerLeaf: 4, HostSpeed: topo.Gen40, FabricSpeed: fabric})
		s := NewSimulator(net)
		hosts := net.Hosts()
		for _, src := range hosts {
			for _, dst := range hosts {
				if src != dst {
					s.StartFlow(src, dst, 1e8)
				}
			}
		}
		s.Run()
		return s.FCTs().Max()
	}
	slow := run(topo.Gen10)
	fast := run(topo.Gen100)
	if fast >= slow {
		t.Fatalf("100GbE shuffle (%vs) not faster than 10GbE (%vs)", fast, slow)
	}
}

func TestScheduleFlowDeferredInjection(t *testing.T) {
	s := NewSimulator(singleLinkNet())
	s.ScheduleFlow(5, 0, 1, 1.25e9)
	s.Run()
	if s.FCTs().N() != 1 {
		t.Fatal("deferred flow did not run")
	}
	if now := float64(s.Engine.Now()); math.Abs(now-6.0) > 1e-6 {
		t.Fatalf("finished at %v, want 6", now)
	}
}

func TestOnFlowDoneCallback(t *testing.T) {
	s := NewSimulator(singleLinkNet())
	var got []int
	s.OnFlowDone(func(f *Flow) { got = append(got, f.ID) })
	s.StartFlow(0, 1, 1e6)
	s.Run()
	if len(got) != 1 {
		t.Fatalf("callback fired %d times", len(got))
	}
}

func TestStartFlowErrors(t *testing.T) {
	n := topo.New()
	n.AddNode(topo.Host, "a")
	n.AddNode(topo.Host, "b")
	s := NewSimulator(n)
	if _, err := s.StartFlow(0, 1, 100); err == nil {
		t.Fatal("expected no-route error")
	}
	s2 := NewSimulator(singleLinkNet())
	if _, err := s2.StartFlow(0, 1, 0); err == nil {
		t.Fatal("expected size error")
	}
}

func TestLinkUtilizationBounded(t *testing.T) {
	s := NewSimulator(singleLinkNet())
	s.StartFlow(0, 1, 1.25e9)
	s.Run()
	u := s.MeanLinkUtilization()
	if u < 0 || u > 1.0001 {
		t.Fatalf("utilization = %v", u)
	}
	// One direction fully busy, the other idle: mean across both = 0.5.
	if math.Abs(u-0.5) > 0.01 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestStationMM1Latency(t *testing.T) {
	// M/M/1 with lambda=50, mu=100: expected sojourn 1/(mu-lambda) = 20ms.
	e := sim.NewEngine()
	st := NewStation(e, 1)
	rng := sim.NewRNG(42)
	arr := sim.NewPoisson(rng.Split(), 50)
	srv := rng.Split()
	n := 50000
	t0 := sim.Time(0)
	for i := 0; i < n; i++ {
		t0 += arr.NextGap()
		e.At(t0, func() {
			st.Submit(sim.Time(srv.Exp(100)), nil)
		})
	}
	e.Run()
	if st.Departed() != n {
		t.Fatalf("departed %d of %d", st.Departed(), n)
	}
	mean := st.Latency().Mean()
	if mean < 0.017 || mean > 0.023 {
		t.Fatalf("M/M/1 mean sojourn = %v, want ~0.020", mean)
	}
}

func TestStationMoreServersCutTail(t *testing.T) {
	run := func(k int) float64 {
		e := sim.NewEngine()
		st := NewStation(e, k)
		rng := sim.NewRNG(7)
		arr := sim.NewPoisson(rng.Split(), 80*float64(k)/2) // keep per-server load at 80% of mu=... careful
		srv := rng.Split()
		t0 := sim.Time(0)
		for i := 0; i < 20000; i++ {
			t0 += arr.NextGap()
			e.At(t0, func() { st.Submit(sim.Time(srv.Exp(100)), nil) })
		}
		e.Run()
		return st.Latency().P99()
	}
	// Same offered load per server; pooling (k=4) beats k=2 at the tail.
	if p4, p2 := run(4), run(2); p4 >= p2 {
		t.Fatalf("pooling did not cut tail: k=4 p99 %v >= k=2 p99 %v", p4, p2)
	}
}

func TestStationQueueStats(t *testing.T) {
	e := sim.NewEngine()
	st := NewStation(e, 1)
	// Three unit jobs arriving together: queue builds to 2.
	for i := 0; i < 3; i++ {
		e.At(0, func() { st.Submit(1, nil) })
	}
	e.Run()
	if st.Departed() != 3 {
		t.Fatalf("departed = %d", st.Departed())
	}
	if st.QueueLenMean() <= 0 {
		t.Fatal("queue length never observed")
	}
	if st.ServiceTimes().Mean() != 1 {
		t.Fatalf("service mean = %v", st.ServiceTimes().Mean())
	}
}

// TestRunReportsScheduledAndStalledFlows: a scheduled flow that cannot
// start, and a flow no link gives a positive rate, fail Run with an error
// instead of panicking; Abandon clears the stall.
func TestRunReportsScheduledAndStalledFlows(t *testing.T) {
	s := NewSimulator(singleLinkNet())
	s.ScheduleFlow(1, 0, 1, -5)
	if err := s.Run(); err == nil {
		t.Fatal("a scheduled flow that cannot start must fail Run")
	}
	s.Net.Links[0].Speed = 0
	if _, err := s.StartFlow(0, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil {
		t.Fatal("a flow with no positive rate must fail Run")
	}
	if stuck := s.Abandon(); len(stuck) != 1 || stuck[0].Done {
		t.Fatalf("abandoned %d flows, want the one unfinished flow", len(stuck))
	}
	if err := s.Run(); err != nil || s.ActiveFlows() != 0 {
		t.Fatalf("after Abandon: %v, %d active", err, s.ActiveFlows())
	}
}
