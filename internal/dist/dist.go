// Package dist is the distributed execution substrate of the SQL engine:
// it places query shards on the hosts of a simulated datacenter fabric
// (internal/topo) and charges every inter-shard data movement — broadcast
// of join build sides, hash-repartition shuffles, the final gather to the
// coordinator — as flows in the flow-level network simulator
// (internal/netsim). Each query therefore reports rows *and* simulated
// network time, bytes shuffled and per-link utilization, which is the
// roadmap's core claim made executable: big-data performance is decided
// in the fabric, not just the cores.
//
// The package deliberately separates the two clocks: shard-local compute
// runs for real on goroutines (one per simulated host) using the
// morsel-parallel batch operators, while data movement advances the
// netsim virtual clock. A query's network cost is exact under the
// max-min fairness model; its compute cost is whatever the hardware
// does.
//
// What crosses a fragment boundary is column vectors, never rows. A
// ShardedTable's shards, a fragment round's outputs (RunShards with a
// DrainSink, or a PartialAggSink's typed group state) and the result of every movement primitive — MergeBySeq, Repartition,
// Broadcast and their chunked forms — are column-built relations
// (relational.NewColumnRelation): range shards are zero-copy windows of
// the registered table's columnar image, hash shards gather a column on
// its first read and keep it, seq-ordered merges copy runs of one stream
// at a time (SeqMerger), a repartition gathers through
// per-(source, destination) selection vectors, and a broadcast build side
// is one set of vectors every shard probes. The primitives read their
// inputs through Relation.Columnar, so row-built relations work too
// (through their cached image); they never write to a vector they were
// handed. The modeled side — Transfer lists, chunk compute bytes, landed
// bounds — is computed from vector lengths and is, byte for byte, what
// the row-at-a-time primitives produced (rowref_test.go keeps those as
// the oracle). RunFragments and BroadcastChunks are the two entry points
// that also fill Rows, for callers that index their results as rows.
package dist

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/netsim"
	"repro/internal/relational"
	"repro/internal/topo"
)

// Coordinator is the pseudo shard index addressing the coordinator host
// in a Transfer.
const Coordinator = -1

// Cluster is a set of shard workers plus a coordinator placed on the
// hosts of a simulated datacenter fabric. It is immutable once built and
// safe to share across queries; per-query flow accounting lives in
// QueryRun.
type Cluster struct {
	Net      *topo.Network
	Topology string
	// Coord is the coordinator's host node ID; Workers maps shard index
	// to host node ID.
	Coord   int
	Workers []int
}

// Topologies supported by NewCluster.
var Topologies = []string{"leafspine", "single", "fattree", "torus"}

// NewCluster builds the named topology sized for shards workers plus one
// coordinator and places them on its hosts (coordinator on the first
// host, shard i on host i+1). An empty name selects "leafspine".
func NewCluster(topology string, shards int) (*Cluster, error) {
	if shards < 1 {
		return nil, fmt.Errorf("dist: need at least 1 shard, got %d", shards)
	}
	need := shards + 1
	var net *topo.Network
	switch topology {
	case "", "leafspine":
		topology = "leafspine"
		leaves := (need + 3) / 4
		if leaves < 2 {
			leaves = 2
		}
		net = topo.LeafSpine(topo.LeafSpineSpec{
			Leaves: leaves, Spines: 2, HostsPerLeaf: 4,
			HostSpeed: topo.Gen10, FabricSpeed: topo.Gen40,
		})
	case "single":
		net = topo.SingleSwitch(need, topo.Gen10)
	case "fattree":
		k := 4
		for k*k*k/4 < need {
			k += 2
		}
		net = topo.FatTree(k, topo.Gen10)
	case "torus":
		w := 2
		for w*w < need {
			w++
		}
		net = topo.Torus2D(w, w, topo.Gen10)
	default:
		return nil, fmt.Errorf("dist: unknown topology %q (have %s)", topology, strings.Join(Topologies, ", "))
	}
	hosts := net.Hosts()
	return &Cluster{Net: net, Topology: topology, Coord: hosts[0], Workers: hosts[1:need]}, nil
}

// Shards returns the worker count.
func (c *Cluster) Shards() int { return len(c.Workers) }

// host resolves a Transfer endpoint (shard index or Coordinator) to a
// host node ID.
func (c *Cluster) host(i int) int {
	if i == Coordinator {
		return c.Coord
	}
	return c.Workers[i]
}

// pathSeconds prices a contention-free transfer between two endpoints:
// serialization at the path's bottleneck link plus propagation.
func (c *Cluster) pathSeconds(src, dst int, bytes float64) float64 {
	a, b := c.host(src), c.host(dst)
	if a == b {
		return 0
	}
	p, ok := c.Net.ShortestPath(a, b)
	if !ok {
		return 0
	}
	return p.TransferSeconds(c.Net, bytes)
}

// EstimateFanoutSeconds prices a phase in which shard i pushes sendBytes[i]
// into the fabric: the slowest sender's serialization bounds the phase.
// The distributed planner uses it to cost broadcast against repartition
// before any byte moves.
// It is a contention-free lower bound — the simulator charges the real
// shared-link cost — but it ranks plans correctly when senders are the
// bottleneck, which access-limited fabrics make the common case.
func (c *Cluster) EstimateFanoutSeconds(sendBytes []float64) float64 {
	worst := 0.0
	for i, b := range sendBytes {
		if b <= 0 {
			continue
		}
		dst := (i + 1) % c.Shards()
		if dst == i {
			dst = Coordinator
		}
		if t := c.pathSeconds(i, dst, b); t > worst {
			worst = t
		}
	}
	return worst
}

// Transfer is one point-to-point bulk movement in a phase. Src and Dst
// are shard indexes, or Coordinator.
type Transfer struct {
	Src, Dst int
	Bytes    float64
}

// PhaseStat records one data-movement phase of a query.
type PhaseStat struct {
	Name    string
	Flows   int
	Bytes   float64
	Seconds float64
	// Chunks is the number of pipelined sub-rounds the phase was split
	// into (0 for bulk-synchronous phases). ComputeSeconds is the modeled
	// consumer compute the phase charged for its landed chunks, and
	// OverlapSeconds is the part of it hidden under in-flight flows —
	// both zero for bulk phases, whose compute happens strictly after the
	// movement.
	Chunks         int
	ComputeSeconds float64
	OverlapSeconds float64
}

// QueryStats is the network-side report of one distributed query, sourced
// from real netsim flows over the cluster fabric.
type QueryStats struct {
	Shards        int
	Topology      string
	Phases        []PhaseStat
	Flows         int
	BytesShuffled float64
	NetSeconds    float64
	MeanLinkUtil  float64
	MaxLinkUtil   float64
	Links         []netsim.LinkLoad
	// Adm is the query's admission-layer report: rounds its phases
	// joined, wall-clock barrier wait (the queueing delay of sharing the
	// fabric with concurrent queries), and the QoS class/weight its flows
	// competed under.
	Adm netsim.PartyStats
	// SpillSeconds is the modeled out-of-core I/O time (spill writes
	// plus read-back) the query's shard-local operators charged against
	// their memory budgets. Zero on unbudgeted runs. It is storage-tier
	// time, not fabric time, so it is reported beside NetSeconds rather
	// than folded in.
	SpillSeconds float64
	// ComputeSeconds is the modeled time pipelined phases charge for
	// consuming landed chunks (build inserts, partial-agg folds, merges),
	// priced at ChunkComputeBytesPerSec. OverlapSeconds is the portion of
	// that compute hidden under in-flight flows — the measured (not
	// assumed) win of pipelining. Both are zero on bulk-synchronous runs,
	// where consumption starts only after NetSeconds has fully elapsed.
	ComputeSeconds float64
	OverlapSeconds float64
	// RecoverySeconds is the modeled cost of surviving injected faults:
	// the network time of recovery phases that re-shipped data lost with
	// a dead host from surviving replicas, plus the modeled re-derivation
	// compute of that data, plus the duplicated compute of speculative
	// fragment executions whose backup won. RetriedFragments counts shard
	// fragments re-dispatched from a dead host to a surviving replica;
	// SpeculativeWins counts straggler fragments whose speculative
	// duplicate finished first. All three are zero on fault-free runs —
	// the failure-free engine never records recovery work.
	RecoverySeconds  float64
	RetriedFragments int
	SpeculativeWins  int
}

// WallSeconds is the modeled movement-plus-consumption critical path:
// network time plus chunk-consumption compute, minus the compute that ran
// under in-flight flows. On bulk runs it degenerates to
// NetSeconds+ComputeSeconds (no overlap); a perfectly pipelined phase
// approaches max(net, compute).
func (s *QueryStats) WallSeconds() float64 {
	return s.NetSeconds + s.ComputeSeconds - s.OverlapSeconds
}

// Summary renders the stats as one human-readable block.
func (s *QueryStats) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network: %s fabric, %d shards — %.0f bytes shuffled in %d flows, %.3f ms simulated\n",
		s.Topology, s.Shards, s.BytesShuffled, s.Flows, s.NetSeconds*1e3)
	for _, p := range s.Phases {
		fmt.Fprintf(&b, "  phase %-12s %3d flows %12.0f B %10.3f ms", p.Name, p.Flows, p.Bytes, p.Seconds*1e3)
		if p.Chunks > 0 {
			fmt.Fprintf(&b, "  (%d chunks, %.3f ms compute, %.3f ms overlapped)", p.Chunks, p.ComputeSeconds*1e3, p.OverlapSeconds*1e3)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  link utilization: mean %.1f%%, max %.1f%%", s.MeanLinkUtil*100, s.MaxLinkUtil*100)
	class := s.Adm.Class
	if class == "" {
		class = "best-effort"
	}
	fmt.Fprintf(&b, "\n  admission: class %s, weight %.3g — %d rounds joined, %.3f ms barrier wait",
		class, s.Adm.Weight, s.Adm.RoundsJoined, s.Adm.BarrierWaitSeconds*1e3)
	if s.SpillSeconds > 0 {
		fmt.Fprintf(&b, "\n  spill: %.3f ms modeled tier I/O", s.SpillSeconds*1e3)
	}
	if s.ComputeSeconds > 0 {
		fmt.Fprintf(&b, "\n  pipeline: %.3f ms chunk compute, %.3f ms overlapped — %.3f ms wall (vs %.3f ms bulk)",
			s.ComputeSeconds*1e3, s.OverlapSeconds*1e3, s.WallSeconds()*1e3, (s.NetSeconds+s.ComputeSeconds)*1e3)
	}
	if s.RecoverySeconds > 0 || s.RetriedFragments > 0 || s.SpeculativeWins > 0 {
		fmt.Fprintf(&b, "\n  recovery: %.3f ms modeled, %d fragments retried, %d speculative wins",
			s.RecoverySeconds*1e3, s.RetriedFragments, s.SpeculativeWins)
	}
	return b.String()
}

// dirKey identifies one direction of a link for per-query accounting.
type dirKey struct {
	link    int
	forward bool
}

// QueryRun charges the data movements of one query as netsim flows over
// the cluster fabric. Phases run sequentially from the query's point of
// view; on a shared Fabric, a phase's flows are admitted in a round
// together with whatever other queries are moving data at the same time,
// and contend with them under max-min fairness. The per-query stats
// attribute only this query's bytes to links, windowed over this query's
// own network time.
type QueryRun struct {
	c      *Cluster
	fab    *Fabric
	party  *netsim.Party
	cancel *relational.CancelToken
	stats  *QueryStats
	link   map[dirKey]float64
	closed bool
	// class/weight are the query's QoS defaults, kept so per-phase
	// overrides (RunPhaseMeasured boosting the final gather) can scale the
	// query's own weight rather than replace it with an absolute one.
	class  string
	weight float64
	// hostOf, when set, overrides the cluster's static shard→host map for
	// this query's flow endpoints. The lifecycle layer installs it so a
	// shard whose primary host died resolves to a surviving replica, and
	// every later phase of the query ships to and from the new placement.
	hostOf func(i int) int
}

// SetHostResolver installs a shard→host resolver overriding the
// cluster's static placement for this query's flows. The resolver
// receives a Transfer endpoint (shard index or Coordinator) and returns
// a host node ID. A nil resolver restores static placement.
func (q *QueryRun) SetHostResolver(fn func(i int) int) { q.hostOf = fn }

// host resolves a Transfer endpoint through the installed resolver, or
// the cluster's static placement when none is set.
func (q *QueryRun) host(i int) int {
	if q.hostOf != nil {
		return q.hostOf(i)
	}
	return q.c.host(i)
}

// NewQuery starts a flow-accounting run for one query on a private
// fabric. Engines sharing a fabric across queries register through
// Fabric.NewQuery instead; this entry point keeps single-query callers
// (tests, one-shot tools) working without managing a Fabric.
func (c *Cluster) NewQuery() *QueryRun {
	return NewFabric(c).NewQuery()
}

// flowReqs converts a transfer list into flow requests: deterministic
// submission order (netsim allocates rates in flow-ID order, so transfer
// order must not depend on map iteration upstream), transfers with no
// bytes or identical endpoints skipped (data that stays on its host does
// not cross the fabric). class and weightScale, when set, tag each
// request with a per-phase QoS override: the phase's flows compete at
// the query's own weight scaled by weightScale, and carry class — but
// only when the session declared no class of its own. Session identity
// wins for attribution and controller policies (a strict-priority
// controller must keep seeing "interactive", not "gather"); the phase
// boost then rides on weight alone.
func (q *QueryRun) flowReqs(transfers []Transfer, class string, weightScale float64) ([]netsim.FlowReq, float64) {
	if q.class != "" {
		class = ""
	}
	sort.SliceStable(transfers, func(i, j int) bool {
		if transfers[i].Src != transfers[j].Src {
			return transfers[i].Src < transfers[j].Src
		}
		return transfers[i].Dst < transfers[j].Dst
	})
	weight := 0.0
	if weightScale > 0 {
		weight = q.weight
		if weight <= 0 {
			weight = 1
		}
		weight *= weightScale
	}
	var reqs []netsim.FlowReq
	bytes := 0.0
	for _, t := range transfers {
		if t.Bytes <= 0 {
			continue
		}
		// Resolve each endpoint once: the resolver is the lifecycle
		// manager's (a lock and a ring walk) on every engine query.
		src, dst := q.host(t.Src), q.host(t.Dst)
		if src == dst {
			continue
		}
		reqs = append(reqs, netsim.FlowReq{Src: src, Dst: dst, Bytes: t.Bytes, Class: class, Weight: weight})
		bytes += t.Bytes
	}
	return reqs, bytes
}

// attribute charges this query's completed flows to the directed links
// they traversed (a completed flow charges its full size to every link on
// its path).
func (q *QueryRun) attribute(flows []*netsim.Flow) {
	for _, f := range flows {
		for i, lid := range f.Path.LinkIDs {
			forward := q.c.Net.Links[lid].A == f.Path.NodeIDs[i]
			q.link[dirKey{link: lid, forward: forward}] += f.Bytes
		}
	}
}

// RunPhase submits one flow per transfer for admission, blocks until the
// round containing them completes, and records the phase makespan.
func (q *QueryRun) RunPhase(name string, transfers []Transfer) error {
	_, err := q.RunPhaseMeasured(name, transfers, "", 0)
	return err
}

// RunPhaseMeasured is RunPhase with a per-phase QoS override, returning
// the phase's simulated makespan: the phase's flows carry class (empty
// inherits the query's class) and compete at the query's weight scaled by
// weightScale (≤0 inherits the query's weight unscaled) — the engine
// marks the latency-critical final gather hotter than the bulk shuffles
// it coexists with. The lifecycle guard, through which the engine runs
// every phase, uses the measurement to place a host death *within* the
// phase (die at Frac×makespan) and to price the recovery phases it then
// runs.
func (q *QueryRun) RunPhaseMeasured(name string, transfers []Transfer, class string, weightScale float64) (float64, error) {
	if err := q.cancel.Err(); err != nil {
		return 0, fmt.Errorf("dist: phase %s: %w", name, err)
	}
	reqs, bytes := q.flowReqs(transfers, class, weightScale)
	sec, flows, err := q.party.Submit(reqs)
	if err != nil {
		return 0, fmt.Errorf("dist: phase %s: %w", name, err)
	}
	q.attribute(flows)
	q.stats.Phases = append(q.stats.Phases, PhaseStat{Name: name, Flows: len(reqs), Bytes: bytes, Seconds: sec})
	q.stats.Flows += len(reqs)
	q.stats.BytesShuffled += bytes
	q.stats.NetSeconds += sec
	return sec, nil
}

// AddRecovery folds fault-recovery work into the query's stats: sec of
// modeled recovery time (re-shipped data, re-derivation, duplicated
// speculative compute), retried fragments re-dispatched off dead hosts,
// and speculative executions whose backup won.
func (q *QueryRun) AddRecovery(sec float64, retried, wins int) {
	q.stats.RecoverySeconds += sec
	q.stats.RetriedFragments += retried
	q.stats.SpeculativeWins += wins
}

// Close deregisters the query from the shared fabric without finalizing
// stats. Error paths MUST reach it (or Finish): an abandoned
// registration would park every concurrent query at the admission
// barrier forever. Close is idempotent and safe after Finish.
func (q *QueryRun) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.party.Leave()
}

// Finish computes the query's link-level utilization — its own bytes
// over its own network time — deregisters it from the fabric, and
// returns the stats.
func (q *QueryRun) Finish() *QueryStats {
	q.Close()
	q.stats.Adm = q.party.Stats()
	if q.stats.NetSeconds > 0 {
		denom := q.stats.NetSeconds
		total := 0.0
		links := make([]netsim.LinkLoad, 0, len(q.link))
		for lid := range q.c.Net.Links {
			for _, forward := range []bool{true, false} {
				b := q.link[dirKey{link: lid, forward: forward}]
				util := b / (q.c.Net.Links[lid].Speed.BytesPerSec() * denom)
				total += util
				if util > q.stats.MaxLinkUtil {
					q.stats.MaxLinkUtil = util
				}
				links = append(links, netsim.LinkLoad{LinkID: lid, Forward: forward, Bytes: b, Util: util})
			}
		}
		q.stats.Links = links
		q.stats.MeanLinkUtil = total / float64(len(links))
	}
	return q.stats
}
