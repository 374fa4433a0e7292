package netsim

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/topo"
)

// Admission is the concurrent-safe flow-admission layer over one shared
// Simulator. The Simulator itself is single-goroutine: flows injected at
// different wall-clock instants would also need a rule for how much
// virtual time separates them. Admission supplies both at once with a
// bulk-synchronous round protocol:
//
//   - Each concurrent workload (a distributed SQL query, typically)
//     Joins as a Party and Submits one batch of flows per communication
//     phase, blocking until the batch completes.
//   - A round admits the pending submission of every joined party at the
//     same virtual instant and runs the simulator until all of the
//     round's flows complete. Flows of concurrently executing parties
//     therefore coexist on the fabric and contend under the simulator's
//     fairness model — the whole point of sharing the simulator.
//   - A round only starts once every joined party has a submission
//     pending (parties between phases are computing; the fabric waits
//     for them), so round membership — and with it every rate
//     allocation — is reproducible for a fixed interleaving of joins.
//
// The virtual clock resets to zero at each round start (the simulator is
// idle between rounds), so identical rounds replay with bit-identical
// arithmetic no matter how much virtual time earlier rounds consumed;
// BusySeconds accumulates the round makespans for utilization windows.
//
// Pipelined workloads split a phase into chunks and offer each via
// SubmitEager: an eager submission triggers a sub-round immediately with
// whatever submissions are pending, instead of waiting for every party
// to reach a phase boundary. Parties with a normal Submit queued are
// carried along (no starvation at the barrier); parties still computing
// are simply not waited for. See SubmitEager for the determinism
// contract.
//
// All methods are safe for concurrent use.
type Admission struct {
	mu   sync.Mutex
	cond *sync.Cond
	sim  *Simulator
	ctl  Controller

	parties map[int]*Party
	nextID  int
	// floor delays rounds until at least floor parties have joined; it is
	// consumed by the first round that runs (and clamped when a party
	// leaves), so a one-shot Expect cannot deadlock later traffic.
	floor int

	stats AdmissionStats

	// Load-telemetry windows (fed to controllers via RoundState): the
	// cumulative per-directed-link bytes at the end of the previous
	// round, that round's deltas, the per-link utilization EWMA across
	// rounds, and the previous round's makespan.
	prevLinkBytes []float64
	lastDelta     []LinkLoad
	utilEWMA      []float64
	lastRoundSec  float64
}

// utilEWMAAlpha weights the newest round's per-link utilization into the
// running average controllers observe: half-life of one round keeps the
// signal recent without flapping on a single quiet round.
const utilEWMAAlpha = 0.5

// AdmissionStats aggregates fabric-wide contention counters across every
// round the admission layer has run.
type AdmissionStats struct {
	// Rounds is the number of admission rounds executed.
	Rounds int
	// PeakFlows is the most flows that coexisted in one round.
	PeakFlows int
	// PeakParties is the most parties whose flows shared one round.
	PeakParties int
	// BusySeconds sums round makespans: the virtual time during which the
	// fabric carried at least one flow.
	BusySeconds float64
	// Bytes is the total bytes admitted.
	Bytes float64
	// ClassBytes attributes admitted bytes to QoS classes ("" is
	// best-effort traffic).
	ClassBytes map[string]float64
	// PathOverrides counts flows the controller rerouted off their
	// default ECMP path; RejectedOverrides counts malformed controller
	// path overrides that were refused (the flow kept its default route).
	PathOverrides     int
	RejectedOverrides int
	// EagerRounds counts rounds that ran before every joined party had a
	// submission pending — the pipelined sub-rounds of SubmitEager. A
	// fabric with no pipelined traffic reports zero.
	EagerRounds int
}

// FlowReq is one requested flow of a submission. Class and Weight
// override the party's defaults for this flow alone; zero values
// inherit (and an unset weight everywhere means uniform weight 1, the
// pre-control-plane behaviour).
type FlowReq struct {
	Src, Dst int
	Bytes    float64
	Class    string
	Weight   float64
}

// Party is one workload's handle on the admission layer.
type Party struct {
	a         *Admission
	id        int
	seed      int
	cancelled func() error
	pending   *submission
	left      bool

	class  string
	weight float64
	pstats PartyStats
}

// PartyStats is the per-party slice of the admission accounting: how
// many rounds this party's phases joined, how long its submissions
// waited at the round barrier, and the QoS identity its flows carried.
// It is the per-query admission report the SQL layer surfaces next to
// the per-query network stats.
type PartyStats struct {
	// RoundsJoined counts admission rounds that carried a submission of
	// this party.
	RoundsJoined int
	// BarrierWaitSeconds accumulates wall-clock time the party's phases
	// spent parked between being offered and their round being admitted
	// — the queueing delay imposed by waiting for concurrent parties to
	// reach their own communication phases. The rounds' simulator
	// execution is excluded, so an uncontended party's wait is ~zero.
	BarrierWaitSeconds float64
	// Class and Weight are the party's QoS defaults (weight 0 reads as 1).
	Class  string
	Weight float64
	// SubRounds counts this party's eager submissions (pipelined chunks)
	// that were admitted — each is one sub-round the party triggered (or
	// joined without waiting for the full barrier). Zero for parties that
	// only ever Submit.
	SubRounds int
}

// submission is one pending phase: the requests going in, and the
// completed flows plus the phase makespan coming out. queued stamps the
// enqueue instant so the round that admits the phase can charge the
// barrier wait (enqueue to round start — excluding the round's own
// simulator execution).
type submission struct {
	reqs    []FlowReq
	queued  time.Time
	flows   []*Flow
	seconds float64
	done    bool
	eager   bool
	err     error
}

// NewAdmission returns an admission layer over sim. The simulator must
// not be driven directly once admission owns it.
func NewAdmission(sim *Simulator) *Admission {
	a := &Admission{sim: sim, parties: map[int]*Party{}}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// Join registers a new party. cancelled, if non-nil, is polled while the
// party waits at the round barrier: a non-nil return abandons the wait
// (pair it with Wake so cancellation interrupts a parked Submit).
func (a *Admission) Join(cancelled func() error) *Party {
	return a.JoinQoS(cancelled, "", 0)
}

// JoinQoS is Join with a QoS identity: class tags the party's flows for
// per-class attribution and controller policies, and weight (when
// positive) is the default scheduling weight of its flows under the
// weighted max-min allocator. Individual FlowReqs may override both.
func (a *Admission) JoinQoS(cancelled func() error, class string, weight float64) *Party {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := &Party{a: a, id: a.nextID, cancelled: cancelled, class: class, weight: weight}
	p.pstats.Class = class
	p.pstats.Weight = weight
	if p.pstats.Weight <= 0 {
		p.pstats.Weight = 1
	}
	a.nextID++
	a.parties[p.id] = p
	// A join can complete an eager sub-round's floor (it can never
	// complete ready(), which needs the newcomer pending too), so parked
	// eager submitters must re-evaluate.
	a.cond.Broadcast()
	return p
}

// SetController installs (or, with nil, removes) the fabric controller
// consulted between rounds. Install it before traffic flows: the round
// in flight when the controller changes keeps the policy it started
// with, but there is no synchronization beyond the admission lock.
// Load-telemetry windows start at installation: a controller installed
// mid-life sees deltas relative to that point, not the fabric's whole
// history collapsed into one "round".
func (a *Admission) SetController(c Controller) {
	a.mu.Lock()
	if c != nil && a.prevLinkBytes == nil {
		loads := a.sim.LinkLoads()
		a.prevLinkBytes = make([]float64, len(loads))
		for i, l := range loads {
			a.prevLinkBytes[i] = l.Bytes
		}
	}
	a.ctl = c
	a.mu.Unlock()
}

// Expect delays the next round until at least n parties have joined.
// Callers launching a known-size batch of concurrent workloads use it to
// guarantee the first round contains all of them regardless of how the
// goroutines interleave. The floor is consumed by the first round that
// runs and clamped whenever a party leaves, so it cannot wedge the
// fabric if a workload finishes (or fails) without ever sending.
func (a *Admission) Expect(n int) {
	a.mu.Lock()
	a.floor = n
	a.mu.Unlock()
}

// Withdraw lowers the Expect floor by one: an expected party will not
// arrive (its workload failed before ever joining). Launchers that
// Expect(n) and fan out n workloads MUST call Withdraw on any path where
// a workload dies pre-join, or the surviving parties park at the round
// barrier forever.
func (a *Admission) Withdraw() {
	a.mu.Lock()
	if a.floor > 0 {
		a.floor--
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

// Wake re-evaluates every parked Submit (used by cancellation hooks).
func (a *Admission) Wake() {
	a.mu.Lock()
	a.cond.Broadcast()
	a.mu.Unlock()
}

// MutateNet runs fn against the simulator's topology under the admission
// lock. Rounds run entirely inside that lock and the allocator reads
// link speeds live at every reallocation, so a mutation (degrading a
// dead host's access links, partitioning a rack) is atomic with respect
// to rate allocation and takes effect from the next round. fn must not
// add or remove links or nodes — only mutate attributes of existing
// ones (Speed, DelayNS) — and must never set a speed to zero, which
// would wedge any flow crossing the link.
func (a *Admission) MutateNet(fn func(*topo.Network)) {
	a.mu.Lock()
	fn(a.sim.Net)
	a.mu.Unlock()
}

// Stats returns a snapshot of the aggregate contention counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	if a.stats.ClassBytes != nil {
		st.ClassBytes = make(map[string]float64, len(a.stats.ClassBytes))
		for k, v := range a.stats.ClassBytes {
			st.ClassBytes[k] = v
		}
	}
	return st
}

// LinkLoads snapshots the shared simulator's cumulative per-link bytes.
// The Util fields are meaningless here — the clock rewinds between
// rounds — so callers must window utilization against Stats().BusySeconds
// themselves.
func (a *Admission) LinkLoads() []LinkLoad {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sim.LinkLoads()
}

// Submit offers one phase worth of flows and blocks until the round
// containing them completes, returning the phase makespan in seconds
// (admission to last completion, including propagation) and the
// completed flows. An empty request returns immediately without joining
// a round. Submit returns the party's cancellation error if it trips
// while the phase is still queued.
func (p *Party) Submit(reqs []FlowReq) (float64, []*Flow, error) {
	return p.submit(reqs, false)
}

// SubmitEager is Submit for pipelined sub-rounds: instead of waiting for
// every joined party to reach a communication phase, it triggers a round
// immediately (floor permitting) with whatever submissions are pending
// right now. Parties that happen to have a phase queued are carried
// along — a bulk-synchronous query is never starved by a pipelined
// neighbour's chunk stream — while parties still computing are simply
// not waited for, which is what lets chunk k's flows drain while the
// receiver digests chunk k-1.
//
// A solo party's eager rounds replay bit-identically (same membership,
// same seeded ECMP sequence); when several parties pipeline at once,
// sub-round membership depends on wall-clock interleaving, which is the
// determinism the caller trades for overlap.
func (p *Party) SubmitEager(reqs []FlowReq) (float64, []*Flow, error) {
	return p.submit(reqs, true)
}

func (p *Party) submit(reqs []FlowReq, eager bool) (float64, []*Flow, error) {
	if len(reqs) == 0 {
		return 0, nil, nil
	}
	a := p.a
	a.mu.Lock()
	defer a.mu.Unlock()
	if p.left {
		return 0, nil, fmt.Errorf("netsim: submit after leave")
	}
	sub := &submission{reqs: reqs, queued: time.Now(), eager: eager}
	p.pending = sub
	a.cond.Broadcast()
	for !sub.done {
		if err := p.cancelErr(); err != nil && p.pending == sub {
			// Withdraw the queued phase so the barrier does not wait on a
			// cancelled party.
			p.pending = nil
			a.cond.Broadcast()
			return 0, nil, err
		}
		if a.ready() || a.eagerPending() {
			a.runRound()
			continue
		}
		a.cond.Wait()
	}
	if sub.err != nil {
		return 0, nil, sub.err
	}
	return sub.seconds, sub.flows, nil
}

// Leave deregisters the party. Remaining parties stop waiting for it at
// the round barrier. Leave is idempotent.
func (p *Party) Leave() {
	a := p.a
	a.mu.Lock()
	defer a.mu.Unlock()
	if p.left {
		return
	}
	p.left = true
	delete(a.parties, p.id)
	if a.floor > len(a.parties) {
		a.floor = len(a.parties)
	}
	a.cond.Broadcast()
}

func (p *Party) cancelErr() error {
	if p.cancelled == nil {
		return nil
	}
	return p.cancelled()
}

// Stats snapshots the party's admission accounting. It remains readable
// after Leave (queries read it while finalizing their reports).
func (p *Party) Stats() PartyStats {
	p.a.mu.Lock()
	defer p.a.mu.Unlock()
	return p.pstats
}

// ready reports whether a round may run: the floor is met and every
// joined party has a phase pending. Callers hold a.mu.
func (a *Admission) ready() bool {
	if len(a.parties) == 0 || len(a.parties) < a.floor {
		return false
	}
	for _, p := range a.parties {
		if p.pending == nil {
			return false
		}
	}
	return true
}

// eagerPending reports whether a pipelined sub-round may run: the floor
// is met and at least one pending submission is eager. Unlike ready(),
// parties with nothing pending do not hold the round back. Callers hold
// a.mu.
func (a *Admission) eagerPending() bool {
	if len(a.parties) == 0 || len(a.parties) < a.floor {
		return false
	}
	for _, p := range a.parties {
		if p.pending != nil && p.pending.eager {
			return true
		}
	}
	return false
}

// runRound admits every pending submission at virtual time zero, runs
// the simulator until all of the round's flows complete, and records
// per-submission makespans. In a bulk-synchronous round every party has
// a submission; in an eager sub-round parties that are still computing
// have none and are skipped. Between collecting the round's requests and
// injecting them, the controller (if any) observes the pending flows
// plus link state and may override any flow's route or weight. Callers
// hold a.mu; the round runs entirely under the lock, so waiters only
// ever observe completed rounds.
func (a *Admission) runRound() {
	a.sim.ResetClock()
	// Deterministic admission order: parties by ID, requests in
	// submission order; each party consumes its own ECMP seed sequence.
	ids := make([]int, 0, len(a.parties))
	for id := range a.parties {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	eagerRound := !a.ready()
	subs := make([]*submission, 0, len(ids))
	// First pass: route every admissible request on its default seeded
	// ECMP path and resolve its effective QoS identity. Requests that
	// fail validation or routing record the submission's error exactly as
	// direct injection used to, and consume their ECMP seed either way.
	type candidate struct {
		sub *submission
		pf  PendingFlow
	}
	var cands []candidate
	now := time.Now()
	for _, id := range ids {
		p := a.parties[id]
		sub := p.pending
		if sub == nil {
			// Eager sub-round: this party is mid-compute; it joins a later
			// round with its next phase.
			continue
		}
		p.pending = nil
		sub.done = true
		p.pstats.RoundsJoined++
		if sub.eager {
			p.pstats.SubRounds++
		}
		p.pstats.BarrierWaitSeconds += now.Sub(sub.queued).Seconds()
		for _, r := range sub.reqs {
			seed := p.seed
			p.seed++
			if r.Bytes <= 0 {
				if sub.err == nil {
					sub.err = fmt.Errorf("netsim: flow size must be positive, got %v", r.Bytes)
				}
				continue
			}
			path, ok := a.sim.Net.PickECMP(r.Src, r.Dst, seed, a.sim.ECMPWidth)
			if !ok {
				if sub.err == nil {
					sub.err = fmt.Errorf("netsim: no route %d -> %d", r.Src, r.Dst)
				}
				continue
			}
			class, weight := r.Class, r.Weight
			if class == "" {
				class = p.class
			}
			if weight <= 0 {
				weight = p.weight
			}
			if weight <= 0 {
				weight = 1
			}
			cands = append(cands, candidate{sub: sub, pf: PendingFlow{
				Party: p.id, Src: r.Src, Dst: r.Dst, Bytes: r.Bytes,
				Class: class, Weight: weight, Seed: seed, Path: path,
			}})
		}
		subs = append(subs, sub)
	}
	// Control plane: the controller observes the round and overrides
	// routes/weights. A nil controller (or a zero Decision) leaves every
	// flow on its default path at its requested weight, which is the
	// bit-identical pre-control-plane data plane.
	var decisions []Decision
	if a.ctl != nil && len(cands) > 0 {
		st := &RoundState{
			Round: a.stats.Rounds, Net: a.sim.Net, Loads: a.sim.LinkLoads(),
			// Telemetry windows: the previous round's per-link deltas and
			// the utilization EWMA (both copied — controllers must not
			// reach back into admission state).
			DeltaLoads:       append([]LinkLoad(nil), a.lastDelta...),
			UtilEWMA:         append([]float64(nil), a.utilEWMA...),
			LastRoundSeconds: a.lastRoundSec,
		}
		st.Pending = make([]PendingFlow, len(cands))
		for i, c := range cands {
			st.Pending[i] = c.pf
		}
		decisions = a.ctl.Admit(st)
	}
	nflows := 0
	for i, c := range cands {
		pf := c.pf
		path, weight := pf.Path, pf.Weight
		if i < len(decisions) {
			d := decisions[i]
			if d.Weight > 0 {
				weight = d.Weight
			}
			if d.Path != nil {
				if validPath(a.sim.Net, *d.Path, pf.Src, pf.Dst) {
					path = *d.Path
					a.stats.PathOverrides++
				} else {
					a.stats.RejectedOverrides++
				}
			}
		}
		f, err := a.sim.StartFlowRouted(pf.Src, pf.Dst, pf.Bytes, path, weight, pf.Class)
		if err != nil {
			if c.sub.err == nil {
				c.sub.err = err
			}
			continue
		}
		c.sub.flows = append(c.sub.flows, f)
		nflows++
		a.stats.Bytes += pf.Bytes
		if a.stats.ClassBytes == nil {
			a.stats.ClassBytes = map[string]float64{}
		}
		a.stats.ClassBytes[pf.Class] += pf.Bytes
	}
	if err := a.sim.Run(); err != nil {
		// A stall fails the phases whose flows it stranded, not the
		// fabric: the next round starts from an idle simulator.
		stuck := map[*Flow]bool{}
		for _, f := range a.sim.Abandon() {
			stuck[f] = true
		}
		for _, sub := range subs {
			for _, f := range sub.flows {
				if stuck[f] && sub.err == nil {
					sub.err = err
				}
			}
		}
	}
	if a.ctl != nil {
		// Telemetry windows exist for controllers; the nil-controller
		// fabric skips the per-round bookkeeping nobody could observe.
		a.updateLoadWindows()
	}
	for _, sub := range subs {
		for _, f := range sub.flows {
			if sec := float64(f.End); sec > sub.seconds {
				sub.seconds = sec
			}
		}
	}
	a.stats.Rounds++
	if eagerRound {
		a.stats.EagerRounds++
	}
	if nflows > a.stats.PeakFlows {
		a.stats.PeakFlows = nflows
	}
	if len(subs) > a.stats.PeakParties {
		a.stats.PeakParties = len(subs)
	}
	a.stats.BusySeconds += float64(a.sim.Engine.Now())
	a.floor = 0
	a.cond.Broadcast()
}

// updateLoadWindows rolls the load-telemetry windows forward over the
// round that just ran: per-directed-link byte deltas, that round's
// utilization (delta over the round makespan), and the cross-round
// utilization EWMA. Callers hold a.mu; runs after the round's simulator
// execution while the virtual clock still reads the round makespan.
func (a *Admission) updateLoadWindows() {
	loads := a.sim.LinkLoads()
	roundSec := float64(a.sim.Engine.Now())
	if a.prevLinkBytes == nil {
		a.prevLinkBytes = make([]float64, len(loads))
	}
	if a.utilEWMA == nil {
		a.utilEWMA = make([]float64, len(loads))
	}
	delta := make([]LinkLoad, len(loads))
	for i, l := range loads {
		d := l.Bytes - a.prevLinkBytes[i]
		util := 0.0
		if roundSec > 0 {
			util = d / (a.sim.Net.Links[l.LinkID].Speed.BytesPerSec() * roundSec)
		}
		delta[i] = LinkLoad{LinkID: l.LinkID, Forward: l.Forward, Bytes: d, Util: util}
		a.utilEWMA[i] = utilEWMAAlpha*util + (1-utilEWMAAlpha)*a.utilEWMA[i]
		a.prevLinkBytes[i] = l.Bytes
	}
	a.lastDelta = delta
	a.lastRoundSec = roundSec
}
