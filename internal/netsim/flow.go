// Package netsim is a flow-level datacenter network simulator. Flows are
// routed over an internal/topo topology, share directed link capacity
// according to max-min fairness (progressive filling, the standard
// flow-level abstraction of TCP-like sharing), and the simulator reports
// flow completion times and link utilization. A multi-server queueing
// station is also provided for service-latency (tail) experiments.
package netsim

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Flow is one bulk transfer between two hosts.
type Flow struct {
	ID    int
	Src   int
	Dst   int
	Bytes float64
	Path  topo.Path
	// Weight is the flow's share weight under weighted max-min fairness
	// (always positive; 1 is the uniform default). A weight-w flow on a
	// bottleneck receives w times the rate of a weight-1 flow.
	Weight float64
	// Class is the QoS class tag the flow was admitted under ("" =
	// best-effort). Purely attributional at this layer.
	Class string

	Start sim.Time
	End   sim.Time
	Done  bool

	remaining float64
	rate      float64 // current bytes/sec
	lastTouch sim.Time
}

// FCT returns the flow completion time in seconds, including path
// propagation delay; it returns 0 for unfinished flows.
func (f *Flow) FCT() float64 {
	if !f.Done {
		return 0
	}
	return float64(f.End - f.Start)
}

// dirLink identifies one direction of a full-duplex link.
type dirLink int

func dirLinkID(linkID int, forward bool) dirLink {
	if forward {
		return dirLink(linkID * 2)
	}
	return dirLink(linkID*2 + 1)
}

// Fairness selects the bandwidth-sharing model.
type Fairness int

const (
	// MaxMin is progressive-filling max-min fairness (default; models
	// TCP-like sharing at flow granularity).
	MaxMin Fairness = iota
	// Proportional is a single-pass heuristic: each flow gets the minimum
	// over its links of capacity divided by flow count. It under-allocates
	// relative to max-min and exists for the fairness ablation.
	Proportional
)

// Simulator runs flows over a topology.
type Simulator struct {
	Net      *topo.Network
	Engine   *sim.Engine
	Fairness Fairness
	// ECMPWidth bounds the ECMP path set considered per flow (default 8).
	ECMPWidth int

	flows     map[int]*Flow
	nextID    int
	doneFCT   *metrics.Sample
	doneBytes float64
	completeC *sim.Event
	linkBusy  []float64 // cumulative byte-seconds per directed link
	onDone    func(*Flow)
	// err is the first error of a scheduled flow that could not start;
	// Run reports and clears it.
	err error
}

// NewSimulator returns a simulator over the given network with its own
// event engine.
func NewSimulator(net *topo.Network) *Simulator {
	return &Simulator{
		Net:       net,
		Engine:    sim.NewEngine(),
		ECMPWidth: 8,
		flows:     map[int]*Flow{},
		doneFCT:   metrics.NewSample(1024),
		linkBusy:  make([]float64, len(net.Links)*2),
	}
}

// OnFlowDone registers a callback invoked when any flow completes.
func (s *Simulator) OnFlowDone(fn func(*Flow)) { s.onDone = fn }

// StartFlow routes and injects a flow of the given size now. It returns the
// flow, or an error if no route exists.
func (s *Simulator) StartFlow(src, dst int, bytes float64) (*Flow, error) {
	return s.StartFlowSeeded(src, dst, bytes, s.nextID)
}

// StartFlowSeeded is StartFlow with an explicit ECMP seed: the seed (not
// the global flow ID) selects among the equal-cost paths. Callers that
// multiplex independent workloads over one long-lived simulator — the
// shared SQL fabric — give each workload its own seed sequence starting
// at zero, so a workload's routing is reproducible regardless of how
// many flows other workloads injected before it.
func (s *Simulator) StartFlowSeeded(src, dst int, bytes float64, seed int) (*Flow, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("netsim: flow size must be positive, got %v", bytes)
	}
	path, ok := s.Net.PickECMP(src, dst, seed, s.ECMPWidth)
	if !ok {
		return nil, fmt.Errorf("netsim: no route %d -> %d", src, dst)
	}
	return s.StartFlowRouted(src, dst, bytes, path, 1, "")
}

// StartFlowRouted injects a flow on an explicit path with an explicit
// scheduling weight and class — the control-plane entry point: the
// admission layer routes (or lets a Controller reroute) before
// injection, then injects here. weight <= 0 means 1. The path must be a
// valid src->dst walk over the simulator's links.
func (s *Simulator) StartFlowRouted(src, dst int, bytes float64, path topo.Path, weight float64, class string) (*Flow, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("netsim: flow size must be positive, got %v", bytes)
	}
	if !validPath(s.Net, path, src, dst) {
		return nil, fmt.Errorf("netsim: invalid path %d -> %d", src, dst)
	}
	if weight <= 0 {
		weight = 1
	}
	id := s.nextID
	s.nextID++
	f := &Flow{
		ID: id, Src: src, Dst: dst, Bytes: bytes, Path: path, Weight: weight, Class: class,
		Start: s.Engine.Now(), remaining: bytes, lastTouch: s.Engine.Now(),
	}
	s.flows[id] = f
	s.reallocate()
	return f, nil
}

// ScheduleFlow injects a flow after the given delay. A flow that cannot
// start there fails the Run that reaches it.
func (s *Simulator) ScheduleFlow(delay sim.Time, src, dst int, bytes float64) {
	s.Engine.Schedule(delay, func() {
		if _, err := s.StartFlow(src, dst, bytes); err != nil && s.err == nil {
			s.err = err
		}
	})
}

// Run drives the engine until every flow completes. It fails when a
// scheduled flow could not start, or when flows are left that no link
// gives a positive rate (disconnected capacity): those stay active until
// Abandon removes them.
func (s *Simulator) Run() error {
	s.Engine.Run()
	if err := s.err; err != nil {
		s.err = nil
		return err
	}
	if len(s.flows) > 0 {
		return fmt.Errorf("netsim: %d active flows but no positive rates (disconnected capacity?)", len(s.flows))
	}
	return nil
}

// Abandon removes every active flow unfinished and returns them, so a
// simulator whose Run stalled can run the next episode.
func (s *Simulator) Abandon() []*Flow {
	out := make([]*Flow, 0, len(s.flows))
	for _, id := range s.sortedFlowIDs() {
		out = append(out, s.flows[id])
		delete(s.flows, id)
	}
	if s.completeC != nil {
		s.Engine.Cancel(s.completeC)
		s.completeC = nil
	}
	return out
}

// ResetClock rewinds the virtual clock to zero if the simulator is idle
// (no active flows, no pending events), reporting whether it did.
// Long-lived simulators that run self-contained episodes — the rounds of
// a shared-fabric Admission — reset between episodes so each replays
// with bit-identical float arithmetic. Cumulative link-byte counters are
// preserved; only the timebase rewinds, so time-windowed utilization
// readings must be taken against an externally tracked busy time.
func (s *Simulator) ResetClock() bool {
	if len(s.flows) > 0 || s.Engine.Pending() > 0 {
		return false
	}
	s.Engine.ResetClock()
	return true
}

// FCTs returns the sample of completed flow completion times (seconds).
func (s *Simulator) FCTs() *metrics.Sample { return s.doneFCT }

// BytesDelivered returns total bytes of completed flows.
func (s *Simulator) BytesDelivered() float64 { return s.doneBytes }

// ActiveFlows returns the number of in-flight flows.
func (s *Simulator) ActiveFlows() int { return len(s.flows) }

// LinkLoad reports one direction of a link: the bytes it carried and its
// utilization over [0, Now]. It is the per-link charging hook the
// distributed SQL engine reads to attribute shuffle traffic to fabric
// links.
type LinkLoad struct {
	LinkID  int
	Forward bool // A->B direction
	Bytes   float64
	Util    float64 // fraction of capacity used over [0, Now]
}

// LinkLoads returns the load of every directed link in (LinkID, direction)
// order. Utilization is 0 before any simulated time has elapsed.
func (s *Simulator) LinkLoads() []LinkLoad {
	now := float64(s.Engine.Now())
	out := make([]LinkLoad, len(s.linkBusy))
	for d, busy := range s.linkBusy {
		util := 0.0
		if now > 0 {
			util = busy / (s.Net.Links[d/2].Speed.BytesPerSec() * now)
		}
		out[d] = LinkLoad{LinkID: d / 2, Forward: d%2 == 0, Bytes: busy, Util: util}
	}
	return out
}

// MeanLinkUtilization returns the average utilization across directed
// links over [0, Now], in [0, 1].
func (s *Simulator) MeanLinkUtilization() float64 {
	now := float64(s.Engine.Now())
	if now <= 0 || len(s.linkBusy) == 0 {
		return 0
	}
	total := 0.0
	for d, busy := range s.linkBusy {
		cap := s.Net.Links[d/2].Speed.BytesPerSec()
		total += busy / (cap * now)
	}
	return total / float64(len(s.linkBusy))
}

// retireThreshold is the residue below which a flow counts as complete.
// It is relative to the flow size: progressive filling accumulates rounding
// on the order of Bytes*eps, so an absolute cutoff would strand large flows
// with residues whose completion events are too small to advance the
// float64 clock.
func retireThreshold(f *Flow) float64 { return 1e-9 + 1e-9*f.Bytes }

// advanceProgress charges each active flow for bytes sent since its last
// touch, at its current rate.
func (s *Simulator) advanceProgress() {
	now := s.Engine.Now()
	for _, id := range s.sortedFlowIDs() {
		f := s.flows[id]
		dt := float64(now - f.lastTouch)
		if dt > 0 && f.rate > 0 {
			s.charge(f, f.rate*dt)
		}
		f.lastTouch = now
	}
}

// chargeExact charges every flow for exactly dt seconds at its current
// rate, independent of the clock. The completion event uses this so that
// the flow that defined the event's delay retires even when the delay is
// too small to move the float64 clock.
func (s *Simulator) chargeExact(dt float64) {
	now := s.Engine.Now()
	for _, id := range s.sortedFlowIDs() {
		f := s.flows[id]
		if f.rate > 0 {
			s.charge(f, f.rate*dt)
		}
		f.lastTouch = now
	}
}

func (s *Simulator) charge(f *Flow, sent float64) {
	if sent > f.remaining || f.remaining-sent <= retireThreshold(f) {
		sent = f.remaining
	}
	f.remaining -= sent
	s.chargeLinks(f, sent)
}

func (s *Simulator) chargeLinks(f *Flow, bytes float64) {
	for i, lid := range f.Path.LinkIDs {
		forward := s.Net.Links[lid].A == f.Path.NodeIDs[i]
		s.linkBusy[dirLinkID(lid, forward)] += bytes
	}
}

// retire finishes every flow whose residue is at or below its threshold,
// in flow-ID order so completion records are reproducible.
func (s *Simulator) retire() {
	for _, id := range s.sortedFlowIDs() {
		f := s.flows[id]
		if f.remaining <= retireThreshold(f) {
			s.finish(f)
			delete(s.flows, id)
		}
	}
}

// reallocate recomputes fair rates and schedules the next completion.
func (s *Simulator) reallocate() {
	s.advanceProgress()
	s.retire()
	if len(s.flows) == 0 {
		return
	}
	switch s.Fairness {
	case MaxMin:
		s.maxMinRates()
	case Proportional:
		s.proportionalRates()
	}
	// Schedule the earliest completion.
	if s.completeC != nil {
		s.Engine.Cancel(s.completeC)
		s.completeC = nil
	}
	best := sim.Time(-1)
	for _, f := range s.flows {
		if f.rate <= 0 {
			continue
		}
		t := sim.Time(f.remaining / f.rate)
		if best < 0 || t < best {
			best = t
		}
	}
	if best < 0 {
		return // stalled: Run reports the flows left
	}
	dt := float64(best)
	s.completeC = s.Engine.Schedule(best, func() {
		s.completeC = nil
		// Charge analytically for the scheduled interval: rates are
		// unchanged since scheduling (any change would have cancelled this
		// event), and the clock delta may round to zero for tiny residues.
		s.chargeExact(dt)
		s.retire()
		s.reallocate()
	})
}

func (s *Simulator) finish(f *Flow) {
	f.Done = true
	f.End = s.Engine.Now() + sim.Time(f.Path.DelayNS(s.Net)*1e-9)
	s.doneFCT.Add(float64(f.End - f.Start))
	s.doneBytes += f.Bytes
	if s.onDone != nil {
		s.onDone(f)
	}
}
