package dist

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/netsim"
	"repro/internal/relational"
	"repro/internal/topo"
)

// Fabric is the shared network of one SQL engine: a single long-lived
// netsim.Simulator over the cluster's topology, fronted by the
// concurrent admission layer so any number of queries can charge their
// broadcasts, shuffles and gathers as coexisting flows. Two queries
// executing at the same time contend for the same links — per-query
// simulated network time degrades under load, which a per-query private
// simulator (the pre-engine design) could never show.
//
// A Fabric is safe for concurrent use and lives as long as its Engine.
type Fabric struct {
	c   *Cluster
	adm *netsim.Admission
}

// NewFabric wraps the cluster's topology in one shared simulator with
// no controller: flows keep their default seeded-ECMP routes and
// requested weights (the fixed data plane).
func NewFabric(c *Cluster) *Fabric {
	return NewFabricController(c, nil)
}

// NewFabricController is NewFabric with a programmable control plane:
// ctl observes every admission round (pending flows, link loads) and may
// reroute or reweight flows before they enter the fabric. A nil ctl is
// the fixed data plane. sdn.NewNetController builds the reference
// implementation; controllers constructed with a nil topology bind their
// view from the first round.
func NewFabricController(c *Cluster, ctl netsim.Controller) *Fabric {
	adm := netsim.NewAdmission(netsim.NewSimulator(c.Net))
	if ctl != nil {
		adm.SetController(ctl)
	}
	return &Fabric{c: c, adm: adm}
}

// Cluster returns the fabric's host placement.
func (f *Fabric) Cluster() *Cluster { return f.c }

// Expect delays the next admission round until n queries are in flight —
// the deterministic way to guarantee a batch of concurrently launched
// queries actually shares its first round. Pair every launched workload
// that can fail before its first data movement with Withdraw on that
// error path. See netsim.Admission.Expect.
func (f *Fabric) Expect(n int) { f.adm.Expect(n) }

// Withdraw releases one Expect slot: an expected query failed before
// registering (e.g. a parse or plan error), so the barrier must stop
// waiting for it.
//
// Withdraw is a raw decrement: a workload whose error handling can reach
// it twice (an error path that also fires a cancellation hook, say)
// would release two slots for one failure, letting the barrier run a
// round before a genuinely expected query arrives. Callers with more
// than one release site should hold a Slot instead.
func (f *Fabric) Withdraw() { f.adm.Withdraw() }

// Slot is an idempotent handle on one Expect slot. However many error
// paths call Withdraw — a failure handler and a cancellation hook both
// firing, a retry loop re-entering cleanup — the underlying slot is
// released exactly once. A nil Slot is safe to withdraw (no-op), so
// callers can hold one unconditionally whether or not a fabric exists.
type Slot struct {
	f    *Fabric
	once sync.Once
}

// Claim reserves an idempotent release handle for one Expect slot. It
// performs no accounting by itself — the slot was created by Expect —
// it only guarantees the paired Withdraw happens at most once.
func (f *Fabric) Claim() *Slot { return &Slot{f: f} }

// Withdraw releases the slot on first call; later calls (and calls on a
// nil Slot) are no-ops.
func (s *Slot) Withdraw() {
	if s == nil {
		return
	}
	s.once.Do(func() { s.f.adm.Withdraw() })
}

// MutateNet runs fn against the fabric's live topology under the
// admission lock, between rounds: link-speed changes (degradation,
// partition) are atomic with respect to rate allocation and take effect
// from the next admission round. The lifecycle fault injector is the
// intended caller.
func (f *Fabric) MutateNet(fn func(*topo.Network)) { f.adm.MutateNet(fn) }

// NewQuery registers a query with the shared fabric and starts its flow
// accounting. The query MUST end with Finish (for stats) or Close (on
// error paths): an abandoned registration would hold every other
// in-flight query at the admission barrier.
func (f *Fabric) NewQuery() *QueryRun { return f.NewQueryQoS(nil, "", 0) }

// NewQueryQoS is NewQuery wired to a cancellation token — tripping it
// aborts phases parked at the admission barrier, and Close/Finish still
// deregisters as usual; nil never cancels — and a QoS identity: every
// flow the query charges carries the class tag (per-class fabric
// attribution, controller policy input) and competes with the given
// weight under the weighted max-min allocator (0 = uniform weight 1). Two
// concurrent queries at weights 3:1 see ~3:1 rates on shared
// bottlenecks, so the weighted query's phases complete sooner.
func (f *Fabric) NewQueryQoS(t *relational.CancelToken, class string, weight float64) *QueryRun {
	q := &QueryRun{
		c:      f.c,
		fab:    f,
		cancel: t,
		stats:  &QueryStats{Shards: f.c.Shards(), Topology: f.c.Topology},
		link:   map[dirKey]float64{},
		class:  class,
		weight: weight,
	}
	q.party = f.adm.JoinQoS(t.Err, class, weight)
	if t != nil {
		t.OnCancel(f.adm.Wake)
	}
	return q
}

// Admission snapshots the raw admission-layer aggregate.
func (f *Fabric) Admission() netsim.AdmissionStats { return f.adm.Stats() }

// FabricStats is the aggregate, cross-query view of the shared fabric:
// link utilization over the fabric's total busy time beside the admission
// counters it was computed from. A daemon's /metrics endpoint reports it
// as its fabric block. Per-query views live in QueryStats.
type FabricStats struct {
	Topology string `json:"topology"`
	// MeanLinkUtil / MaxLinkUtil are computed over Admission.BusySeconds,
	// so two queries sharing rounds (overlapping in time) drive
	// utilization strictly above what either achieves alone.
	MeanLinkUtil float64 `json:"mean_link_util"`
	MaxLinkUtil  float64 `json:"max_link_util"`
	// Admission is the snapshot the utilization was computed from. Its
	// PeakParties > 1 is the direct witness that queries contended, and
	// its ClassBytes is the per-tenant view of who used the fabric.
	Admission *netsim.AdmissionStats `json:"admission"`
}

// Stats snapshots the fabric-wide aggregate.
func (f *Fabric) Stats() *FabricStats {
	a := f.adm.Stats()
	st := &FabricStats{Topology: f.c.Topology, Admission: &a}
	if a.BusySeconds <= 0 {
		return st
	}
	loads := f.adm.LinkLoads()
	total := 0.0
	for _, l := range loads {
		util := l.Bytes / (f.c.Net.Links[l.LinkID].Speed.BytesPerSec() * a.BusySeconds)
		total += util
		if util > st.MaxLinkUtil {
			st.MaxLinkUtil = util
		}
	}
	if len(loads) > 0 {
		st.MeanLinkUtil = total / float64(len(loads))
	}
	return st
}

// Summary renders the aggregate as one human-readable block.
func (s *FabricStats) Summary() string {
	a := s.Admission
	var b strings.Builder
	fmt.Fprintf(&b, "fabric: %s — %d admission rounds, peak %d concurrent queries / %d coexisting flows\n",
		s.Topology, a.Rounds, a.PeakParties, a.PeakFlows)
	fmt.Fprintf(&b, "  %.0f bytes over %.3f ms busy; link utilization mean %.1f%%, max %.1f%%",
		a.Bytes, a.BusySeconds*1e3, s.MeanLinkUtil*100, s.MaxLinkUtil*100)
	if len(a.ClassBytes) > 0 {
		classes := make([]string, 0, len(a.ClassBytes))
		for c := range a.ClassBytes {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		b.WriteString("\n  per-class bytes:")
		for _, c := range classes {
			name := c
			if name == "" {
				name = "best-effort"
			}
			fmt.Fprintf(&b, " %s=%.0f", name, a.ClassBytes[c])
		}
	}
	if a.PathOverrides > 0 {
		fmt.Fprintf(&b, "\n  controller: %d flows rerouted", a.PathOverrides)
	}
	return b.String()
}
