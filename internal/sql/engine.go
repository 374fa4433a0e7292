package sql

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/lifecycle"
	"repro/internal/memtier"
	"repro/internal/netsim"
	"repro/internal/relational"
	"repro/internal/stream"
)

// Config selects the execution engine. It is the construction-time
// configuration of an Engine; sessions may override the per-session
// knobs (see Session). The optimizer rules — predicate pushdown below
// joins, hash-join build on the smaller estimated side, constant folding
// — are not configurable: every plan gets them.
type Config struct {
	// Parallel lowers plans onto the morsel-parallel batch engine
	// (columnar chunks, kernel inner loops, multi-core leaf scans). When
	// false, plans run on the volcano row-at-a-time engine.
	Parallel bool
	// Workers caps batch-engine parallelism; 0 means runtime.NumCPU().
	// In distributed mode this is the per-host core count.
	Workers int
	// Distributed shards tables across the hosts of a simulated
	// datacenter fabric and executes queries shard-parallel, charging
	// every broadcast, shuffle and gather as flows in the network
	// simulator. All of an engine's queries share one simulator, so
	// concurrent sessions contend for the fabric. Shard-local fragments
	// and the coordinator's post-gather plan always run on the batch
	// engine, and every fragment round and movement phase goes through
	// the cluster's lifecycle manager (see Replication, Faults), so hosts
	// can be drained, restored and joined on any distributed engine.
	Distributed bool
	// Shards is the worker-host count in distributed mode (default 4).
	Shards int
	// Topology names the distributed fabric: "leafspine" (default),
	// "single", "fattree" or "torus".
	Topology string
	// DistJoin forces the distributed join movement strategy:
	// "auto" (cost-based, default), "broadcast" or "repartition".
	DistJoin string
	// Controller plugs a programmable control plane into the engine's
	// shared fabric: between admission rounds it observes every pending
	// flow (with class/weight tags from the submitting sessions) and the
	// per-link load, and may reroute or reweight flows before they enter
	// the simulator. Use sdn.NewNetController(nil, policy, tableCap) —
	// the controller binds its topology view from the fabric's first
	// round — or any custom netsim.Controller. Nil (the default) is the
	// fixed data plane: default seeded-ECMP routes, session weights
	// honoured as requested, bit-identical with pre-controller engines.
	// Construction-time only: it is wired when the cluster is built and
	// is not a per-session override. A controller instance serves
	// exactly ONE engine: Admit calls are serialized by that engine's
	// fabric lock, so sharing an instance across engines would race on
	// the controller's internal state — give each engine its own.
	Controller netsim.Controller
	// Devices is the heterogeneous device catalog morsels may be placed
	// on: a subset of {"cpu", "gpu", "fpga"}. Devices are cost models,
	// not alternative implementations — every morsel still executes the
	// reference CPU kernels, so results are row-for-row identical across
	// any device set — and each batch operator charges the modeled
	// seconds/energy (plus transfer, launch and reconfiguration
	// overheads) of whichever device the placement policy picked into
	// its stats and the query's Result.Devices report. Empty (the
	// default) is the homogeneous CPU engine: no dispatch wrapping at
	// all, bit-identical with pre-device engines. Placement applies to
	// the batch operators, so it is active under Parallel and inside
	// distributed shard fragments (each simulated worker host places
	// independently on its own device state); the serial row engine
	// ignores it.
	Devices []string
	// Placement selects the morsel placement policy over Devices:
	// "auto" (cost-based per morsel, the default) or a device name
	// ("cpu", "gpu", "fpga") forcing every morsel onto that device.
	// Sessions may override it per query stream (Session.Placement).
	Placement string
	// MemoryBudget caps the bytes of operator state (hash-join build
	// tables, partial-aggregate maps, sort runs, top-k heaps) a query may
	// hold resident at once. It is a meter: every operator runs its
	// in-memory algorithm, and when a reservation would exceed the budget
	// the state that did not fit is priced as written to the SpillTier
	// and read back (grace hash partitions for joins, key partitions of a
	// spilled generation for aggregates, runs for sorts and for a top-k
	// whose heap could not be reserved), the modeled tier I/O charged
	// into OpStats.Spill and Result.Spill. A budget never changes an
	// operator's algorithm: the spill is counted in accesses and bytes
	// and priced once from the totals, so its seconds do not depend on
	// the order operators charge them in. Like Devices,
	// the budget models cost without changing semantics: results are
	// bit-identical at every budget, float sums included, and 0 (the
	// default) is the unbudgeted engine,
	// bit-identical with pre-budget code paths. A distributed query forks
	// the budget per shard host and charges the coordinator's post-gather
	// operators to the query budget itself — one spill model, the batch
	// operators' own, on every host. The row engine (Parallel=false, the
	// oracle) meters nothing: its Result.Spill is nil at every budget.
	// Sessions may override it (Session.MemoryBudget). Negative values are
	// rejected at NewEngine.
	MemoryBudget int64
	// SpillTier names the memtier catalog tier budget overflow spills
	// to: "nvm", "ssd" (the default when a budget is set) or "disk".
	// DRAM is deliberately not a spill target — spilling to the tier the
	// budget models is a no-op, not an out-of-core strategy. Sessions
	// may override it (Session.SpillTier).
	SpillTier string
	// PipelineChunkRows is the chunk size of distributed movement, and
	// picks how a movement phase is charged. Every broadcast, shuffle and
	// gather is cut into chunks of at most this many rows by its dist
	// chunker, and the chunks decide the charge; the receiver takes the
	// moved payload whole once the phase is charged. There are two
	// charging rules. Positive: each chunk is admitted on the shared
	// fabric as an eager sub-round, and the modeled consumer compute and
	// the part of it hidden under the next chunk's flows go into
	// Result.Net.ComputeSeconds / OverlapSeconds. 0 (the default, "chunk
	// size infinity") is the bulk charge: the payload is one covering
	// chunk, admitted as one barrier round, with no consumer compute
	// charged. Chunking never changes answers, and a positive size at or
	// above the payload charges the same flows as 0, bit for bit.
	// Negative values are rejected at NewEngine. Sessions may override it
	// (Session.PipelineChunkRows).
	PipelineChunkRows int
	// Replication places each shard's data on this many distinct live
	// hosts (distributed mode only). Reads follow the primary replica —
	// with every host live that is the static placement, so every
	// replication factor charges the same flows until membership changes
	// — and failover re-dispatches a dead primary's fragments to a
	// surviving replica. 0 and 1 both mean one copy: hosts can still be
	// drained and joined, but a host death loses its shards. Values above
	// Shards are rejected at NewEngine. Replication is construction-time
	// only (the cluster's placement is shared state, not a per-session
	// knob).
	Replication int
	// Faults installs a deterministic fault-injection schedule on the
	// engine's cluster (distributed mode only): host deaths mid-phase,
	// stragglers with speculative re-execution, link degradation and
	// partitions, each firing once when the first query reaches the
	// event's ordinal. Recovery work is measured into Result.Net
	// (RecoverySeconds, RetriedFragments, SpeculativeWins). Nil (the
	// default) injects nothing. Construction-time only. Build plans with
	// lifecycle.ParsePlan or lifecycle.Seeded.
	Faults *lifecycle.FaultPlan
}

// DefaultConfig is the single-node batch engine.
func DefaultConfig() Config {
	return Config{Parallel: true}
}

// Engine owns everything queries share: the catalog of registered
// relations, the planner configuration, and — in distributed mode — one
// long-lived cluster placement with a single shared network simulator.
// Queries from any number of concurrent sessions charge their data
// movements into that one simulator, so their flows coexist and contend:
// per-query simulated network time degrades under load, which is the
// fabric-interference effect the roadmap argues engines must be designed
// around.
//
// An Engine is safe for concurrent use; create Sessions to run queries.
type Engine struct {
	cfg Config
	// cluster, fabric and lcm — the elastic-membership manager every
	// distributed query reaches the fabric through — exist in distributed
	// mode only. All three are set once in NewEngine and read without
	// locking.
	cluster *dist.Cluster
	fabric  *dist.Fabric
	lcm     *lifecycle.Manager

	mu     sync.RWMutex
	tables map[string]*relational.Relation
	// sharded caches each table's shard placement by lowercased name.
	sharded map[string]*dist.ShardedTable
	// placed holds the column each Place-declared table hashes on, by
	// lowercased name; a table absent from it is range-placed.
	placed map[string]int
	// epoch counts catalog mutations (see CatalogEpoch).
	epoch uint64
	// dataEpochs counts per-table data mutations — appends bump them
	// WITHOUT touching epoch, so cached plans survive growth (schema
	// unchanged) while result caches and subscriptions can still detect
	// it (see DataEpoch).
	dataEpochs map[string]uint64
	// hub fans appended batches out to streaming subscriptions. Inert
	// (no goroutines, no cost) until the first Subscribe.
	hub *stream.Hub
}

// NewEngine validates cfg and returns an empty engine. In distributed
// mode the cluster and its shared fabric are built eagerly, so topology
// errors surface here rather than at the first query.
func NewEngine(cfg Config) (*Engine, error) {
	if err := checkDistJoin(cfg.DistJoin); err != nil {
		return nil, err
	}
	if err := exec.ValidateConfig(cfg.Devices, cfg.Placement); err != nil {
		return nil, err
	}
	if err := validateSpill(cfg.MemoryBudget, cfg.SpillTier); err != nil {
		return nil, err
	}
	if cfg.PipelineChunkRows < 0 {
		return nil, fmt.Errorf("sql: negative PipelineChunkRows %d", cfg.PipelineChunkRows)
	}
	if cfg.Replication < 0 {
		return nil, fmt.Errorf("sql: negative Replication %d", cfg.Replication)
	}
	if (cfg.Replication > 1 || cfg.Faults != nil) && !cfg.Distributed {
		return nil, fmt.Errorf("sql: Replication/Faults require Distributed mode")
	}
	e := &Engine{
		cfg:        cfg,
		tables:     map[string]*relational.Relation{},
		sharded:    map[string]*dist.ShardedTable{},
		placed:     map[string]int{},
		dataEpochs: map[string]uint64{},
		hub:        stream.NewHub(),
	}
	if !cfg.Distributed {
		return e, nil
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = distDefaultShards
	}
	var err error
	if e.cluster, err = dist.NewCluster(cfg.Topology, shards); err != nil {
		return nil, err
	}
	e.fabric = dist.NewFabricController(e.cluster, cfg.Controller)
	if e.lcm, err = lifecycle.NewManager(e.fabric, cfg.Replication, cfg.Faults, e.shardBytes); err != nil {
		return nil, err
	}
	return e, nil
}

// checkDistJoin validates a join movement strategy name.
func checkDistJoin(name string) error {
	switch name {
	case "", "auto", "broadcast", "repartition":
		return nil
	}
	return fmt.Errorf("sql: unknown DistJoin strategy %q", name)
}

// Config returns the engine's construction-time configuration.
func (e *Engine) Config() Config { return e.cfg }

// Session opens a new session on the engine. Sessions are cheap; open
// one per concurrent query stream.
func (e *Engine) Session() *Session { return &Session{eng: e} }

// Register adds (or replaces) a table under its lowercased name,
// invalidating any cached shard placements of the previous version and
// bumping the catalog epoch (see CatalogEpoch). The table is
// range-placed until a Place says otherwise.
func (e *Engine) Register(rel *relational.Relation) {
	name := strings.ToLower(rel.Name)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tables[name] = rel
	e.epoch++
	e.dataEpochs[name]++
	delete(e.sharded, name)
	delete(e.placed, name)
	// Replacing the relation starts a fresh stream: a name whose previous
	// incarnation was closed accepts appends again.
	e.hub.Reopen(name)
}

// Place declares where a registered table lives, the way a DISTRIBUTED BY
// clause would: its rows hash on column across the shards, so equal keys
// share a shard, and a join of two tables placed on its join keys moves
// nothing (the "local" movement). Every table is range-placed until it is
// placed, and again after a Register of its name. Place is a catalog
// operation: it bumps the catalog epoch, so cached plans re-plan, and
// drops the table's cached placement. An unknown table or column is an
// error. A single-node engine keeps the declaration and has no shards to
// apply it to.
func (e *Engine) Place(table, column string) error {
	name := strings.ToLower(table)
	e.mu.Lock()
	defer e.mu.Unlock()
	rel, ok := e.tables[name]
	if !ok {
		return fmt.Errorf("sql: unknown table %q", table)
	}
	col := rel.Schema.ColIndex(column)
	if col < 0 {
		return fmt.Errorf("sql: table %q has no column %q to place on", table, column)
	}
	e.placed[name] = col
	e.epoch++
	delete(e.sharded, name)
	return nil
}

// IngestClass is the QoS class distributed stream appends bill their
// fabric flows under: ingest bytes show up per class in the fabric
// aggregate (FabricStats.ClassBytes) and contend with query flows in
// the same admission rounds.
const IngestClass = "ingest"

// AppendRows appends rows to a registered table: AppendColumns over the
// rows' transpose (Relation.Extend).
func (e *Engine) AppendRows(table string, rows []relational.Row) (stream.Ingest, error) {
	return e.appendWith(table, len(rows), func(rel *relational.Relation) (*relational.Relation, error) {
		return rel.Extend(rows)
	})
}

// AppendColumns appends the n rows of cols — one vector per column of the
// table's schema, of its type, holding n values — to a registered table:
// the catalog swaps to the relation ExtendColumns returns, column-built,
// so running queries keep scanning their snapshot while new queries (and
// the sharded-placement freshness check) see the growth. The table's data
// epoch bumps; the catalog epoch does NOT — the schema is unchanged, so
// cached plans stay valid. Streaming subscriptions on the table observe
// the batch in append order. On a distributed engine the appended bytes
// are billed to the shared fabric as ingest-class flows from the
// coordinator to each row's destination shard. The returned
// acknowledgement covers rows durable in the catalog. The engine copies
// the cells: the caller keeps cols.
func (e *Engine) AppendColumns(table string, cols []relational.Vector, n int) (stream.Ingest, error) {
	return e.appendWith(table, n, func(rel *relational.Relation) (*relational.Relation, error) {
		return rel.ExtendColumns(cols, n)
	})
}

// appendWith swaps table's relation for grow(it), a relation n rows
// longer, and publishes and bills the new rows (see AppendColumns).
func (e *Engine) appendWith(table string, n int, grow func(*relational.Relation) (*relational.Relation, error)) (stream.Ingest, error) {
	if n == 0 {
		return stream.Ingest{}, nil
	}
	name := strings.ToLower(table)
	e.mu.Lock()
	old, ok := e.tables[name]
	if !ok {
		e.mu.Unlock()
		return stream.Ingest{}, fmt.Errorf("sql: unknown table %q", table)
	}
	if e.hub.TableClosed(name) {
		e.mu.Unlock()
		return stream.Ingest{}, fmt.Errorf("sql: stream for table %q is closed", table)
	}
	nrel, err := grow(old)
	if err != nil {
		e.mu.Unlock()
		return stream.Ingest{}, err
	}
	start := old.Len()
	e.tables[name] = nrel
	e.dataEpochs[name]++
	delete(e.sharded, name)
	strategy, keyCol := e.sharding(name)
	// Publish under the catalog lock: subscription arrival order must
	// equal append order (the hub only enqueues — no blocking, no
	// reentry into the engine). The published window is the catalog's own
	// immutable vectors, not the caller's rows — callers may reuse their
	// batch buffer the moment Append returns, while subscriptions drain
	// asynchronously.
	tail := nrel.Slice(start, nrel.Len())
	e.hub.Publish(name, tail)
	e.mu.Unlock()

	return stream.Ingest{Start: int64(start), Rows: n, Bytes: tail.EncodedBytes(),
		NetSeconds: e.billIngest(nrel, start, strategy, keyCol)}, nil
}

// billIngest charges the movement of rel's rows from start on — one
// appended batch — to the shared fabric as ingest-class flows
// (coordinator → destination shard, per the table's placement).
// Endpoints resolve through the lifecycle manager, so a drained or dead
// host's share lands on the shard's live primary; the run takes the
// resolver only, not a Guard — an append is not a query phase and must
// not claim a fault-plan ordinal. The party is short-lived — join, one
// phase, leave — so it contends in admission rounds with whatever
// queries are in flight without ever holding the round barrier open.
// Returns the modeled fabric seconds (0 on single-node engines).
func (e *Engine) billIngest(rel *relational.Relation, start int, strategy dist.Strategy, keyCol int) float64 {
	if e.fabric == nil {
		return 0
	}
	qr := e.fabric.NewQueryQoS(nil, IngestClass, 0)
	qr.SetHostResolver(e.lcm.HostFor)
	if err := qr.RunPhase("ingest", dist.AppendTransfers(rel, start, e.cluster.Shards(), strategy, keyCol)); err != nil {
		qr.Close()
		return 0
	}
	return qr.Finish().NetSeconds
}

// DataEpoch returns how many data mutations (appends or Register
// replacements) the named table has seen. Unlike CatalogEpoch it is
// per-table and appends bump it — the freshness signal for anything
// caching results rather than plans.
func (e *Engine) DataEpoch(table string) uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.dataEpochs[strings.ToLower(table)]
}

// CatalogEpoch returns the number of catalog mutations the engine has
// seen: every Register — including one that replaces an existing
// relation — increments it. Anything derived from the catalog (a
// server-side prepared-statement cache, most prominently) records the
// epoch it was built under and treats a mismatch as staleness, so a
// cached plan can never survive a Register by construction.
func (e *Engine) CatalogEpoch() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch
}

// Table looks a table up by name.
func (e *Engine) Table(name string) (*relational.Relation, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[strings.ToLower(name)]
	return t, ok
}

// Fabric exposes the shared network fabric for contention inspection
// (aggregate stats, Expect barriers); nil on single-node engines.
func (e *Engine) Fabric() *dist.Fabric { return e.fabric }

// distDefaultShards is the worker count when Config.Shards is unset.
const distDefaultShards = 4

// shardBytes is the lifecycle manager's per-shard resident-bytes
// provider: the sum, over every cached shard placement, of the encoded
// bytes living on each shard — what a rebalance or repair must actually
// move. Tables not yet sharded (never queried) weigh nothing until they
// are.
func (e *Engine) shardBytes() []float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]float64, e.cluster.Shards())
	for _, t := range e.sharded {
		for i, b := range t.Bytes() {
			out[i] += b
		}
	}
	return out
}

// Lifecycle exposes the cluster's elastic-membership manager; nil on
// single-node engines, like Fabric.
func (e *Engine) Lifecycle() *lifecycle.Manager { return e.lcm }

// errSingleNode reports a membership operation on an engine without a
// cluster.
var errSingleNode = fmt.Errorf("sql: host membership needs a Distributed engine")

// DrainHost evacuates a worker host: its replicas copy to other live
// hosts (movement charged to the shared fabric) and no fragments land
// on it until RestoreHost.
func (e *Engine) DrainHost(worker int) error {
	if e.lcm == nil {
		return errSingleNode
	}
	return e.lcm.DrainWorker(worker)
}

// RestoreHost returns a drained worker host to service.
func (e *Engine) RestoreHost(worker int) error {
	if e.lcm == nil {
		return errSingleNode
	}
	return e.lcm.RestoreWorker(worker)
}

// JoinHost annexes a spare topology host as a new worker, returning its
// worker index.
func (e *Engine) JoinHost() (int, error) {
	if e.lcm == nil {
		return -1, errSingleNode
	}
	return e.lcm.JoinHost()
}

// sharding is how the engine partitions the named table: a hash of the
// column a Place declared, or contiguous row ranges. Callers hold e.mu.
func (e *Engine) sharding(name string) (dist.Strategy, int) {
	if col, ok := e.placed[name]; ok {
		return dist.HashShard, col
	}
	return dist.RangeShard, -1
}

// shardedTable returns the cached shard placement of rel.
func (e *Engine) shardedTable(rel *relational.Relation) *dist.ShardedTable {
	key := strings.ToLower(rel.Name)
	fresh := func(t *dist.ShardedTable) bool { return t != nil && t.Rel == rel }
	// Read-locked fast path: concurrent sessions planning over an
	// already-sharded table must not serialize on the engine mutex.
	e.mu.RLock()
	t := e.sharded[key]
	e.mu.RUnlock()
	if fresh(t) {
		return t
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if t := e.sharded[key]; fresh(t) {
		return t
	}
	strategy, keyCol := e.sharding(key)
	t = dist.ShardRelation(rel, e.cluster.Shards(), strategy, keyCol)
	e.sharded[key] = t
	return t
}

// planner compiles one statement against an engine's catalog under an
// effective configuration. cancel, when set, is woven into the lowered
// operator tree (leaf guards checked at every batch boundary) and into
// the distributed runtime (fabric-barrier waits, phase boundaries), so
// tripping it aborts the execution promptly on every path.
type planner struct {
	eng    *Engine
	cfg    Config
	cancel *relational.CancelToken
	// class and weight are the session's QoS identity: every flow the
	// compiled plan charges on the shared fabric carries them.
	class  string
	weight float64
}

// defaultSpillTier is where budget overflow goes when SpillTier is
// unset: flash is the tier a 2016-era datacenter node actually has
// behind DRAM.
const defaultSpillTier = "ssd"

// validateSpill checks an out-of-core configuration. A SpillTier
// without a budget is allowed — the engine sets the tier, a session
// turns the budget on — but must still name a real tier so typos
// surface at construction.
func validateSpill(budget int64, tier string) error {
	if budget < 0 {
		return fmt.Errorf("sql: negative MemoryBudget %d", budget)
	}
	if tier != "" {
		if _, err := memtier.NewSpillDevice(tier); err != nil {
			return err
		}
	}
	return nil
}

// spillBudget builds one execution's memory budget, or nil on the
// unbudgeted engine (no MemoryBudget configured). Budgets are
// per-execution, like placers and cancellation tokens: the spill
// aggregate a budget carries belongs to exactly one run.
func (pl *planner) spillBudget() (*relational.MemoryBudget, error) {
	if pl.cfg.MemoryBudget <= 0 {
		return nil, nil
	}
	tier := pl.cfg.SpillTier
	if tier == "" {
		tier = defaultSpillTier
	}
	dev, err := memtier.NewSpillDevice(tier)
	if err != nil {
		return nil, err
	}
	return relational.NewMemoryBudget(pl.cfg.MemoryBudget, dev), nil
}
