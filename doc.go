// Package repro is a full reproduction of "RETHINK big: European Roadmap
// for Hardware and Networking Optimizations for Big Data" (DATE 2017) as
// an executable Go toolkit: every subsystem the roadmap analyses —
// datacenter fabrics, SDN/NFV control planes, disaggregated
// infrastructure, heterogeneous accelerators and their economics,
// MapReduce/dataflow/SQL processing layers, heterogeneous scheduling and
// the roadmap process itself (survey corpus → findings → prioritized
// recommendations) — implemented as libraries under internal/, exercised
// by the experiment harnesses in internal/experiments, and reproduced as
// benchmarks in bench_test.go. The SQL layer is entered through the
// Engine/Session API (sql.NewEngine, Engine.Session, Session.Prepare /
// Query with context cancellation): it executes on a morsel-parallel,
// batch-at-a-time engine (internal/relational) whose inner loops
// delegate to the accelerator building blocks in internal/kernels, and
// scales out shard-parallel across the simulated datacenter fabrics
// (internal/dist over internal/topo + internal/netsim), charging every
// broadcast, shuffle and gather as simulated network flows on the
// engine's one shared simulator — so concurrent sessions contend for
// the fabric exactly as the roadmap's multi-query interference argument
// requires. The fabric carries a programmable control plane
// (netsim.Controller, wired via sql.Config.Controller): between
// admission rounds it observes pending flows and link loads and may
// reroute flows or assign scheduling weights, which the data plane
// honours through weighted max-min fairness; sessions tag their flows
// with QoS classes and weights (Session.Priority / Session.Weight), the
// reference controller lives in internal/sdn (NetController over a
// flow-table with LRU eviction, plus the Baseline / RerouteHotLinks /
// StrictPriority policy catalog — the latter preferring the fabric's
// per-round load-telemetry windows), and every Result reports its
// admission view (rounds joined, barrier wait, class, weight) next to
// its network stats. Compute is heterogeneous the same way the network
// is programmable: internal/exec is the operator-execution seam
// (exec.Device over the internal/hw roofline models, pluggable
// placement policies, per-operator morsel dispatchers with selectivity
// feedback), wired via sql.Config.Devices / Config.Placement /
// Session.Placement, so the batch operators place each morsel on
// whichever modeled device class — SIMD CPU, SIMT GPU, spatial FPGA
// pipeline — the cost model picks, charge the modeled time/energy and
// offload overheads into their stats and Result.Devices, and still
// return rows identical to the homogeneous engine on every path
// (devices model cost, not semantics; distributed shard hosts place
// independently). Memory is budgeted the same way compute is placed:
// sql.Config.MemoryBudget / Config.SpillTier (and their Session
// overrides) cap resident operator state per query — hash-join build
// tables grace-partition, aggregates spill generations of group state,
// sorts go external-run-merge when the relational.MemoryBudget arena
// runs out, and ORDER BY + LIMIT reserves only the rows it keeps (per
// shard below the gather, then at the coordinator) — with every byte crossing the tier boundary priced by a
// memtier spill device (Recommendation 5's memory wall as a cost
// model: access latency, bandwidth and energy of NVM/SSD/disk) into
// per-operator OpStats.Spill, the query's Result.Spill, and — in
// distributed mode, where each worker host forks its own budget —
// QueryStats.SpillSeconds beside the fabric time; rows stay identical
// to the unbudgeted engine at every budget on every path. Movement has
// one path: every distributed movement phase — broadcast, repartition
// shuffle, final gather — is the deterministic per-source chunks its
// chunker cut plus a consumer that lands each one (hash builds fill,
// partial aggregates fold, the coordinator's sequence merger advances),
// and sql.Config.PipelineChunkRows (and its Session override) picks how
// it is charged: positive, the chunks' fabric flows are admitted as eager
// netsim sub-rounds while consumers digest the previous chunk, the final
// gather competing at a boosted QoS weight, and the overlap is measured,
// not assumed (QueryStats.ComputeSeconds / OverlapSeconds / WallSeconds
// beside NetSeconds); zero, the bulk engine, the one chunk covering the
// payload is one barrier round. Rows stay identical at every chunk size,
// and a chunk covering the whole payload charges bulk's flows
// bit-identically. The whole engine is
// servable the same way it is embeddable: internal/serve fronts one
// shared Engine as the multi-tenant rethinkd daemon (cmd/rethinkd) —
// API-key tenants whose configured QoS class, fabric weight, worker and
// memory-budget defaults apply to every query they submit, an HTTP/JSON
// wire surface whose canonical encoding (internal/serve/wire) is shared
// with rethink-sql -json and the rethink-load harness (cmd/rethink-load:
// thousands of concurrent sessions dealt across tenants by share,
// per-tenant wall and modeled latency quantiles, row-fingerprint parity
// against direct library execution), a server-side prepared-statement
// cache keyed by (tenant, statement, session-config) whose entries
// record the engine's catalog epoch at preparation so Engine.Register
// invalidates them by construction, client-disconnect cancellation
// threaded onto the engine's cancel path (a dead client releases its
// admission-barrier slot instead of wedging the round), and graceful
// drain — in-flight queries finish, new ones get 503, orphaned gang
// slots are withdrawn from the shared fabric's barrier, and tenants
// with a configured max-inflight cap are refused with 429 before the
// fabric sees their excess work. The cluster underneath is elastic the
// same way the engine is servable: internal/lifecycle
// (sql.Config.Replication / Config.Faults, rethinkd -replication
// -chaos) replicates every shard across R live hosts, reshapes
// membership at runtime — drain/restore/join with the evacuated bytes
// billed to the fabric as rebalance-class flows, /v1/hosts over the
// wire — and injects deterministic faults (kill mid-phase with
// replica failover and re-shipped recovery, stragglers raced by
// speculative duplicates with first-result-wins, link degradation and
// partitions), pricing survival into QueryStats.RecoverySeconds /
// RetriedFragments / SpeculativeWins while rows stay identical to the
// failure-free run. Every distributed query reaches the fabric through
// that layer's per-query guard — every movement phase and every fragment
// round, the partial-aggregate round included; with every host live it
// places shards exactly where the static cluster does. Results leave the
// engine as they cross every fragment boundary inside it, as column
// vectors: a batch or distributed Result.Rows is a column-built relation
// the wire encoder reads vector by vector, and rows are boxed only when a
// caller asks RowView() (the printers) or runs the row-engine oracle,
// whose scan boxes one row at a time and caches nothing. The demo tables
// (sql.RegisterDemo) are born as columns too: no registered table holds
// a boxed copy.
// Tables grow the same way: an append is relational.Relation.Extend, a
// new column-built snapshot whose vectors extend the ones queries read,
// and the stream hub publishes and windows those columns through the
// batch planner's own filter and projections. See README.md
// for the package map, the control-plane policy catalog, the
// heterogeneous-execution, out-of-core, pipelined-execution, serving
// and elastic-cluster sections, and build, test and benchmark
// instructions.
package repro
