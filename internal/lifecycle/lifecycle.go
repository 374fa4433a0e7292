// Package lifecycle is the cluster-membership and fault subsystem of the
// distributed engine: it fronts the static dist.Cluster with an elastic
// view in which worker hosts join, drain, and die at runtime, shards
// carry a replication factor R (each shard's data lives on R distinct
// live hosts), and a deterministic fault injector drives recovery paths
// that a failure-free run never exercises. Every distributed engine has
// one Manager, and its Guard is the only way a query reaches the fabric:
// with one replica per shard and no fault plan that is a manager with
// nothing to inject, whose hosts can still be drained, restored and
// joined.
//
// The Manager owns membership. Placement is deterministic: shard s's
// replicas are the first R live workers walking the worker ring from
// index s, and its primary — the host that executes the shard's
// fragments and anchors its flows — is the first of them. With every
// host live this is the static placement (replica 0 of shard s is
// worker s), so a fault-free cluster charges the same flows at every
// replication factor. Membership changes
// recompute placement, and every byte the new placement obliges to move
// — drain evacuations, join rebalances, post-death re-replication — is
// charged to the shared netsim fabric as ordinary flows under its own
// QoS class ("rebalance"/"repair"), admitted as eager sub-rounds so an
// in-flight query is never held at the barrier waiting for background
// movement.
//
// Queries see the elastic view through a Guard (one per query run),
// which points the QueryRun's host resolver at the Manager and runs
// every movement phase and fragment round. The Guard is where injected
// faults land: a host death mid-phase re-dispatches the dead host's
// fragments to a surviving replica and re-ships the lost bytes from
// replicas ("recover:" phases); a straggling fragment past the
// speculation threshold gets a duplicate execution with
// first-result-wins and loser cancellation; link degradation and
// partitions mutate the live topology under the admission lock. All
// recovery work is measured into QueryStats (RecoverySeconds,
// RetriedFragments, SpeculativeWins) beside Net/Compute/Spill — the
// resilience cost the cloud-optimization literature prices as a
// first-class objective, made visible per query.
package lifecycle

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dist"
	"repro/internal/topo"
)

// PartitionFactor is the link-speed divisor a partition event applies to
// the target host's access links. A partition cannot zero the speed —
// in-flight flows over a zero-capacity link would never complete and the
// admission round would wedge — so it degrades by a factor large enough
// that the cost dominates any phase that still crosses the cut.
const PartitionFactor = 1000

// hostState is the lifecycle state of one worker slot.
type hostState int

const (
	stateLive hostState = iota
	// stateDrained marks an evacuated host: alive (it can source copies)
	// but holding no replicas and running no fragments.
	stateDrained
	// stateDead marks a failed host: its data is gone and it can never
	// source or sink anything again.
	stateDead
)

// Manager is the elastic-membership view over one dist.Fabric. It is
// safe for concurrent use; one Manager serves every query of an engine.
type Manager struct {
	mu          sync.Mutex
	fab         *dist.Fabric
	c           *dist.Cluster
	replication int
	plan        *FaultPlan
	shardBytes  func() []float64

	// hosts maps worker index to host node ID; state is parallel to it.
	// The first Shards() worker indexes are the static placement; JoinHost
	// appends annexed spare hosts.
	hosts  []int
	state  []hostState
	spares []int

	gen   int
	fired []bool

	rebalancedBytes  float64
	rebalanceSeconds float64
	repairBytes      float64
	repairSeconds    float64
	repairs          int
}

// NewManager builds the elastic view over fab with the given replication
// factor (values below 1 mean 1) and fault plan (nil injects nothing).
// shardBytes, when non-nil, reports the current per-shard resident bytes
// so membership changes can price their data movement; nil charges
// rebalances as zero-byte (placement still moves).
func NewManager(fab *dist.Fabric, replication int, plan *FaultPlan, shardBytes func() []float64) (*Manager, error) {
	c := fab.Cluster()
	if replication < 1 {
		replication = 1
	}
	if replication > c.Shards() {
		return nil, fmt.Errorf("lifecycle: replication %d exceeds %d workers", replication, c.Shards())
	}
	m := &Manager{
		fab:         fab,
		c:           c,
		replication: replication,
		plan:        plan,
		shardBytes:  shardBytes,
		hosts:       append([]int(nil), c.Workers...),
		state:       make([]hostState, len(c.Workers)),
	}
	if plan != nil {
		m.fired = make([]bool, len(plan.Events))
	}
	// Spare hosts: topology hosts carrying neither the coordinator nor a
	// worker, available to JoinHost.
	used := map[int]bool{c.Coord: true}
	for _, w := range c.Workers {
		used[w] = true
	}
	for _, h := range c.Net.Hosts() {
		if !used[h] {
			m.spares = append(m.spares, h)
		}
	}
	return m, nil
}

// Replication returns the configured replication factor.
func (m *Manager) Replication() int { return m.replication }

// Shards returns the logical shard count (fixed for the cluster's life;
// hosts are elastic, shards are not).
func (m *Manager) Shards() int { return m.c.Shards() }

// replicasLocked returns the worker indexes holding shard s's replicas
// under current membership: the first R live workers walking the ring
// from index s. Fewer than R live workers yields a short (degraded)
// set; zero live workers yields an empty one.
func (m *Manager) replicasLocked(s int) []int {
	var out []int
	n := len(m.hosts)
	for off := 0; off < n && len(out) < m.replication; off++ {
		w := (s + off) % n
		if m.state[w] == stateLive {
			out = append(out, w)
		}
	}
	return out
}

// placementLocked snapshots every shard's replica set.
func (m *Manager) placementLocked() [][]int {
	out := make([][]int, m.c.Shards())
	for s := range out {
		out[s] = m.replicasLocked(s)
	}
	return out
}

// PrimaryWorker returns the worker index executing shard s's fragments
// under current membership, or an error when every replica is dead.
func (m *Manager) PrimaryWorker(s int) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	reps := m.replicasLocked(s)
	if len(reps) == 0 {
		return -1, fmt.Errorf("lifecycle: shard %d has no live replica (replication %d)", s, m.replication)
	}
	return reps[0], nil
}

// HostFor resolves a Transfer endpoint (shard index or dist.Coordinator)
// to a host node ID under current membership: the shard's primary
// replica. It is the host resolver of every run that ships to or from
// shards (dist.QueryRun.SetHostResolver). A shard with no live replica
// falls back to its static host — the query is already failing through
// Kill's error by then, the resolver just must not panic.
func (m *Manager) HostFor(i int) int {
	if i == dist.Coordinator {
		return m.c.Coord
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	reps := m.replicasLocked(i)
	if len(reps) == 0 {
		return m.c.Workers[i]
	}
	return m.hosts[reps[0]]
}

// NodeOf maps a worker index to its host node ID.
func (m *Manager) NodeOf(w int) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nodeOfLocked(w)
}

// nodeOfLocked maps a worker index to its host node ID.
func (m *Manager) nodeOfLocked(w int) (int, error) {
	if w < 0 || w >= len(m.hosts) {
		return -1, fmt.Errorf("lifecycle: worker %d out of range [0,%d)", w, len(m.hosts))
	}
	return m.hosts[w], nil
}

// shardBytesLocked snapshots the per-shard resident bytes (zeros without
// a provider). Called with m.mu held; the provider must not call back
// into the Manager.
func (m *Manager) shardBytesLocked() []float64 {
	if m.shardBytes == nil {
		return make([]float64, m.c.Shards())
	}
	b := m.shardBytes()
	if len(b) < m.c.Shards() {
		b = append(b, make([]float64, m.c.Shards()-len(b))...)
	}
	return b
}

// movementLocked diffs two placements and returns the transfers (in host
// node ID space) that materialize the new one: every shard replica
// present in neu but not old receives the shard's bytes from a
// still-live member of the old set (dead workers cannot source; that
// filtering is the caller's via the old placement it passes).
func (m *Manager) movementLocked(old, neu [][]int, bytes []float64) []dist.Transfer {
	var out []dist.Transfer
	for s := range neu {
		src := -1
		for _, w := range old[s] {
			if m.state[w] != stateDead {
				src = w
				break
			}
		}
		if src < 0 {
			continue // nothing left to copy from; Kill reports the loss
		}
		for _, w := range neu[s] {
			if !containsWorker(old[s], w) {
				out = append(out, dist.Transfer{Src: m.hosts[src], Dst: m.hosts[w], Bytes: bytes[s]})
			}
		}
	}
	return out
}

func containsWorker(ws []int, w int) bool {
	for _, x := range ws {
		if x == w {
			return true
		}
	}
	return false
}

// charge runs the movement transfers as real flows on the shared fabric
// under the given QoS class, admitted as an eager sub-round so in-flight
// queries are never parked waiting for background movement. Transfers
// are in host node ID space (identity resolver). It returns the bytes
// moved and the simulated seconds. Must be called without m.mu held.
func (m *Manager) charge(name, class string, ts []dist.Transfer) (float64, float64, error) {
	bytes := 0.0
	for _, t := range ts {
		bytes += t.Bytes
	}
	if len(ts) == 0 || bytes <= 0 {
		return 0, 0, nil
	}
	qr := m.fab.NewQueryQoS(nil, class, 0)
	qr.SetHostResolver(func(i int) int { return i })
	err := qr.RunPipelined(name, []dist.Chunk{{Transfers: ts}}, "", 0, landNothing)
	st := qr.Finish()
	if err != nil {
		return bytes, st.NetSeconds, fmt.Errorf("lifecycle: %s: %w", name, err)
	}
	return bytes, st.NetSeconds, nil
}

// landNothing is the chunk consumer of every phase the lifecycle charges:
// a movement is a charge, and its receiver takes the payload whole after
// the phase.
func landNothing(int) error { return nil }

// rebalance applies a membership mutation (already performed under mu by
// mutate, which returns the old placement) and charges the movement the
// new placement requires under the "rebalance" class.
func (m *Manager) rebalance(name string, mutate func() ([][]int, error)) error {
	m.mu.Lock()
	old, err := mutate()
	if err != nil {
		m.mu.Unlock()
		return err
	}
	m.gen++
	neu := m.placementLocked()
	ts := m.movementLocked(old, neu, m.shardBytesLocked())
	m.mu.Unlock()
	bytes, sec, err := m.charge(name, "rebalance", ts)
	m.mu.Lock()
	m.rebalancedBytes += bytes
	m.rebalanceSeconds += sec
	m.mu.Unlock()
	return err
}

// DrainWorker evacuates a worker: its replicas copy to other live hosts
// (charged to the fabric) and no new primaries land on it. The host
// stays alive — RestoreWorker can bring it back. Draining the last live
// worker is refused.
func (m *Manager) DrainWorker(w int) error {
	return m.rebalance("drain", func() ([][]int, error) {
		if _, err := m.nodeOfLocked(w); err != nil {
			return nil, err
		}
		switch m.state[w] {
		case stateDead:
			return nil, fmt.Errorf("lifecycle: worker %d is dead", w)
		case stateDrained:
			return nil, fmt.Errorf("lifecycle: worker %d already drained", w)
		}
		live := 0
		for _, st := range m.state {
			if st == stateLive {
				live++
			}
		}
		if live <= 1 {
			return nil, fmt.Errorf("lifecycle: cannot drain the last live worker")
		}
		old := m.placementLocked()
		m.state[w] = stateDrained
		return old, nil
	})
}

// RestoreWorker returns a drained worker to service; the replicas the
// new placement assigns it are copied back (charged to the fabric).
func (m *Manager) RestoreWorker(w int) error {
	return m.rebalance("restore", func() ([][]int, error) {
		if _, err := m.nodeOfLocked(w); err != nil {
			return nil, err
		}
		if m.state[w] != stateDrained {
			return nil, fmt.Errorf("lifecycle: worker %d is not drained", w)
		}
		old := m.placementLocked()
		m.state[w] = stateLive
		return old, nil
	})
}

// JoinHost annexes a spare topology host as a new live worker, returning
// its worker index. Replicas the new placement assigns it are copied
// over (charged to the fabric).
func (m *Manager) JoinHost() (int, error) {
	idx := -1
	err := m.rebalance("join", func() ([][]int, error) {
		if len(m.spares) == 0 {
			return nil, fmt.Errorf("lifecycle: no spare hosts in the %s topology", m.c.Topology)
		}
		old := m.placementLocked()
		node := m.spares[0]
		m.spares = m.spares[1:]
		m.hosts = append(m.hosts, node)
		m.state = append(m.state, stateLive)
		idx = len(m.hosts) - 1
		return old, nil
	})
	return idx, err
}

// Kill marks a worker dead: its replicas are lost, shards it hosted
// re-replicate from surviving replicas onto the new placement (charged
// under the "repair" class), and the dead host's node ID plus the shards
// whose primary it was are returned so the caller can re-dispatch work
// and re-ship in-flight data. A shard whose every replica is dead is an
// error — the data is gone and the query must fail, not fake rows.
func (m *Manager) Kill(w int) (deadNode int, remapped []int, err error) {
	m.mu.Lock()
	deadNode, err = m.nodeOfLocked(w)
	if err != nil {
		m.mu.Unlock()
		return -1, nil, err
	}
	if m.state[w] == stateDead {
		m.mu.Unlock()
		return deadNode, nil, fmt.Errorf("lifecycle: worker %d is already dead", w)
	}
	old := m.placementLocked()
	m.state[w] = stateDead
	m.gen++
	neu := m.placementLocked()
	bytes := m.shardBytesLocked()
	var lost []int
	var repairs []dist.Transfer
	for s := range old {
		if !containsWorker(old[s], w) {
			continue
		}
		src := -1
		for _, r := range old[s] {
			if r != w && m.state[r] != stateDead {
				src = r
				break
			}
		}
		if src < 0 {
			lost = append(lost, s)
			continue
		}
		if old[s][0] == w {
			remapped = append(remapped, s)
		}
		for _, r := range neu[s] {
			if !containsWorker(old[s], r) {
				repairs = append(repairs, dist.Transfer{Src: m.hosts[src], Dst: m.hosts[r], Bytes: bytes[s]})
			}
		}
	}
	m.mu.Unlock()
	if len(lost) > 0 {
		return deadNode, nil, fmt.Errorf("lifecycle: worker %d died and shard(s) %v lost every replica (replication %d)", w, lost, m.replication)
	}
	moved, sec, cerr := m.charge("repair", "repair", repairs)
	m.mu.Lock()
	m.repairBytes += moved
	m.repairSeconds += sec
	m.repairs += len(repairs)
	m.mu.Unlock()
	if cerr != nil {
		return deadNode, remapped, cerr
	}
	return deadNode, remapped, nil
}

// DegradeWorker divides the speed of every access link touching the
// worker's host by factor (values ≤1 mean PartitionFactor — an effective
// partition; a non-finite factor is refused). The mutation happens under
// the admission lock and prices every later round; it is never undone —
// injected faults are part of the cluster's history.
func (m *Manager) DegradeWorker(w int, factor float64) error {
	if math.IsNaN(factor) || math.IsInf(factor, 0) {
		return fmt.Errorf("lifecycle: degrade worker %d: factor %g is not finite", w, factor)
	}
	m.mu.Lock()
	node, err := m.nodeOfLocked(w)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if factor <= 1 {
		factor = PartitionFactor
	}
	m.fab.MutateNet(func(n *topo.Network) {
		// A factor that underflows a link to zero (or to a subnormal
		// speed the rate arithmetic loses) would strand its flows: refuse
		// it before touching any link.
		for _, lid := range n.Incident(node) {
			if s := float64(n.Links[lid].Speed) / factor; !(s >= minLinkSpeed) {
				err = fmt.Errorf("lifecycle: degrade worker %d: factor %g leaves link %d at speed %g", w, factor, lid, s)
				return
			}
		}
		for _, lid := range n.Incident(node) {
			n.Links[lid].Speed = topo.GbE(float64(n.Links[lid].Speed) / factor)
		}
	})
	return err
}

// minLinkSpeed is the least speed a degrade may leave a link at: the
// smallest positive normal float64.
const minLinkSpeed = 0x1p-1022

// claimPhaseEvents hands the Guard every unfired movement-phase event
// (kill, degrade, partition) scheduled for the given phase ordinal,
// marking them fired. Events fire once per cluster: the first query to
// reach the ordinal claims them.
func (m *Manager) claimPhaseEvents(phase int) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.plan == nil {
		return nil
	}
	var out []Event
	for i, ev := range m.plan.Events {
		if m.fired[i] || ev.Kind == EventSlow || ev.Phase != phase {
			continue
		}
		m.fired[i] = true
		out = append(out, ev)
	}
	return out
}

// claimSlowEvents hands the Guard the straggle factors of every unfired
// slow-worker event scheduled for the given fragment-round ordinal,
// marking them fired.
func (m *Manager) claimSlowEvents(round int) map[int]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.plan == nil {
		return nil
	}
	var out map[int]float64
	for i, ev := range m.plan.Events {
		if m.fired[i] || ev.Kind != EventSlow || ev.Phase != round {
			continue
		}
		m.fired[i] = true
		if out == nil {
			out = map[int]float64{}
		}
		f := ev.Factor
		if f <= 0 {
			f = 4
		}
		out[ev.Worker] = f
	}
	return out
}

// Health is a point-in-time snapshot of cluster membership and the
// cumulative cost of keeping it healthy.
type Health struct {
	// Generation increments on every membership change (join, drain,
	// restore, death).
	Generation  int `json:"generation"`
	Replication int `json:"replication"`
	// Workers counts worker slots ever admitted (including dead ones);
	// Live/Drained/Dead partition them. Spares are unassigned topology
	// hosts JoinHost can still annex. The counts are always on the wire:
	// a zero is a fact about the cluster, not an omission.
	Workers int `json:"workers"`
	Live    int `json:"live"`
	Drained int `json:"drained"`
	Dead    int `json:"dead"`
	Spares  int `json:"spares"`
	// RebalancedBytes/RebalanceSeconds price planned movement (drain,
	// restore, join); RepairBytes/RepairSeconds/Repairs price post-death
	// re-replication. All charged to the shared fabric as real flows.
	RebalancedBytes  float64 `json:"rebalanced_bytes,omitempty"`
	RebalanceSeconds float64 `json:"rebalance_seconds,omitempty"`
	RepairBytes      float64 `json:"repair_bytes,omitempty"`
	RepairSeconds    float64 `json:"repair_seconds,omitempty"`
	Repairs          int     `json:"repairs,omitempty"`
	// EventsFired/EventsTotal track the fault plan's schedule.
	EventsFired int `json:"events_fired"`
	EventsTotal int `json:"events_total"`
}

// Health snapshots the cluster state.
func (m *Manager) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := Health{
		Generation:       m.gen,
		Replication:      m.replication,
		Workers:          len(m.hosts),
		Spares:           len(m.spares),
		RebalancedBytes:  m.rebalancedBytes,
		RebalanceSeconds: m.rebalanceSeconds,
		RepairBytes:      m.repairBytes,
		RepairSeconds:    m.repairSeconds,
		Repairs:          m.repairs,
	}
	for _, st := range m.state {
		switch st {
		case stateLive:
			h.Live++
		case stateDrained:
			h.Drained++
		case stateDead:
			h.Dead++
		}
	}
	if m.plan != nil {
		h.EventsTotal = len(m.plan.Events)
		for _, f := range m.fired {
			if f {
				h.EventsFired++
			}
		}
	}
	return h
}
