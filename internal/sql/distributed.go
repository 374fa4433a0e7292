package sql

// The distributed execution of the logical plan (one logical plan, one
// lowerer, two executions — see lower.go). Join order, build side,
// pruning and pushdown arrive decided in the logicalPlan the single-node
// execution lowers too; this file adds where the data lives and how it
// moves. Every shard fragment is built by that shard's lowerer, with
// filters and projections pushed below every shuffle; joins choose
// broadcast or hash-repartition movement by a cost rule priced against
// the fabric's path capacity; aggregates fold per shard and either finish
// there, when their groups are co-placed, or ship partials the coordinator
// merges in global first-seen order. Every inter-host
// movement — build-side broadcasts, repartition shuffles, the final
// gather — is charged as flows in the network simulator, so a distributed
// plan reports rows AND simulated network time, bytes shuffled and
// per-link utilization.
//
// Interchange: what crosses a boundary is column vectors — every fragment
// boundary and the last one, out of the engine. Shard placements, fragment
// outputs, every movement primitive's result and the query's Result.Rows
// are column-built relations (relational.NewColumnRelation), so the next
// fragment's scan windows them as they stand; the vectors are immutable
// and freely shared — a range shard is a zero-copy window of the
// registered table, a broadcast build side is one set of vectors every
// shard probes. Nothing in a distributed run boxes a row; whoever wants
// rows asks the result for RowView().
//
// One path: every fragment round — the partial-aggregate round included —
// and every movement phase goes through the execution's lifecycle.Guard,
// the only way a distributed query reaches the fabric or fans out over
// its shards, and the coordinator's post-gather plan runs on the batch
// engine, like the fragments, drained by relational.Drain like them. On a
// cluster with one replica per shard and no fault plan the guard resolves
// every shard to its static host and has nothing to inject.
//
// One movement path: every broadcast, shuffle and gather is cut by its
// dist chunker into the chunks that decide its charge, and distExec.move
// charges them — the only place a movement reaches the fabric. There are
// two charging rules, and move is where the rule is picked:
// Config.PipelineChunkRows > 0 charges pipelined sub-rounds with modeled
// consumer compute and overlap; 0 — the bulk engine — cuts one covering
// chunk and charges it as one barrier round. The receiver takes the moved
// payload whole once the phase is charged: one shared HashBuild for a
// broadcast, one per destination for a shuffle, one MergeAll of the
// shards' partial aggregates, one seq merge for the final gather.
//
// Determinism: every shard-local stream carries the hidden #seq column
// (the row's index in the original relation, or the probe-side lineage
// after joins) and stays seq-ascending through every operator, so the
// coordinator's k-way merge — and the partial-agg first-seen merge —
// reproduce the single-node engine's output row-for-row.

import (
	"fmt"
	"slices"

	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/lifecycle"
	"repro/internal/relational"
)

// withSeq appends the hidden sequence column to a visible schema.
func withSeq(schema relational.Schema) relational.Schema {
	return append(append(relational.Schema{}, schema...), relational.Column{Name: dist.SeqColName, Type: relational.Int})
}

// decorFn is one pending shard-local operator: it wraps the shard's
// current stream (whose schema is the visible columns plus trailing
// #seq) using the shard's lowerer. The shard index lets join decorators
// bind shard-specific build sides.
type decorFn func(lw *lowerer, shard int, n execNode) (execNode, error)

// distStream is the runtime state of the partitioned intermediate: the
// materialized per-shard relations plus pending decorators applied when
// the next stage builds its fragments. Every base relation and every
// decorated stream is #seq-ascending. Which of its visible columns have
// their equal values on one shard is a plan-time property of the stream
// front returns, distExec.partitioned; the aggregate planner reads it.
type distStream struct {
	// dx is the execution context: the per-shard lowerers fragments are
	// built with, and the lifecycle guard fragment rounds route through
	// (straggler speculation, replica-aware dispatch).
	dx     *distExec
	base   []*relational.Relation
	decor  []decorFn
	schema relational.Schema // visible columns (excludes #seq)
	// hint is the planner's per-shard cardinality estimate of the stream,
	// the setup amortization hint of every kernel the decorators place.
	hint int
	// joined marks a stream that passed through a join: fan-out
	// duplicates its seq tags, so the stream must be re-sequenced before
	// it moves between shards again.
	joined bool
}

// fragment lowers shard s's pending operators over its base relation. It
// may run more than once per shard, concurrently (a speculative
// duplicate rebuilds its own tree), so it works on a private copy of the
// shard's lowerer.
func (st *distStream) fragment(s int) (relational.BatchOp, error) {
	lw := st.dx.lowerer(s, st.hint)
	n := lw.scan(st.base[s])
	for _, d := range st.decor {
		var err error
		if n, err = d(lw, s, n); err != nil {
			return nil, err
		}
	}
	return n.bat, nil
}

// materialize runs the pending decorators on every shard (in parallel,
// one simulated host each) and replaces the base relations. The round
// runs through the lifecycle guard: a straggling shard gets a speculative
// duplicate (the guard rebuilds the fragment via st.fragment), and
// fragments follow live replicas.
func (st *distStream) materialize() error {
	if len(st.decor) == 0 {
		return nil
	}
	rels, err := st.dx.guard.RunFragments("frag", len(st.base), st.dx.workers, st.fragment)
	if err != nil {
		return err
	}
	st.base, st.decor = rels, nil
	return nil
}

// reseq replaces the stream's seq tags with their global merge rank,
// restoring uniqueness after join fan-out duplicated them (duplicates
// are confined to one shard, so the k-way merge is still the exact
// serial order). Each shard gets a fresh seq vector beside its shared,
// untouched data vectors — the base may be zero-copy windows of a
// registered table, so nothing is relabeled in place — and no row data
// moves: the real-system analogue is a counts-only prefix exchange, so no
// flow is charged.
func (st *distStream) reseq() error {
	if err := st.materialize(); err != nil {
		return err
	}
	seqCol := len(st.schema)
	ranks := make([][]int64, len(st.base))
	total := 0
	for i, rel := range st.base {
		ranks[i] = make([]int64, rel.Len())
		total += rel.Len()
	}
	var rank int64
	dist.NewSeqMerger(st.base, seqCol).TakeRuns(total, func(shard, lo, hi int) {
		for r := lo; r < hi; r++ {
			ranks[shard][r] = rank
			rank++
		}
	})
	base := make([]*relational.Relation, len(st.base))
	for i, rel := range st.base {
		cols := append([]relational.Vector(nil), rel.Columnar()...)
		cols[seqCol] = relational.Vector{T: relational.Int, Ints: ranks[i]}
		base[i] = relational.NewColumnRelation(rel.Name, rel.Schema, cols, rel.Len())
	}
	st.base, st.joined = base, false
	return nil
}

// bytes returns the per-shard serialized sizes of the materialized base.
func (st *distStream) bytes() []float64 {
	out := make([]float64, len(st.base))
	for i, r := range st.base {
		out[i] = r.EncodedBytes()
	}
	return out
}

// filter appends a compiled filter (nil: nothing to do).
func (st *distStream) filter(f *planFilter) {
	if f != nil {
		st.decor = append(st.decor, func(lw *lowerer, _ int, n execNode) (execNode, error) {
			return lw.filter(n, f), nil
		})
	}
}

// project appends a projection to schema (visible columns only): exprs
// produce the visible columns and the stream's seq column passes through
// last.
func (st *distStream) project(schema relational.Schema, exprs []relational.ProjExpr) {
	pe := append(append([]relational.ProjExpr{}, exprs...), relational.Pick(len(st.schema)))
	wide := withSeq(schema)
	st.decor = append(st.decor, func(lw *lowerer, _ int, n execNode) (execNode, error) {
		return lw.project(n, wide, pe)
	})
	st.schema = schema
}

// distExec carries the runtime context of one distributed execution:
// the logical plan and each leg's shard placement, the engine whose
// cluster and shared fabric the run registers with, the cancellation
// token guarding fragments and phase waits, and the session's QoS
// identity stamped onto every flow the run charges.
type distExec struct {
	lp     *logicalPlan
	tables []*dist.ShardedTable // parallel to lp.legs

	eng      *Engine
	cancel   *relational.CancelToken
	workers  int
	distJoin string // "", "auto", "broadcast", "repartition"
	class    string
	weight   float64
	// chunkRows is the movement chunk size (Config.PipelineChunkRows).
	// Every payload is cut by it — 0 cuts one covering chunk — and move is
	// the one place that reads it to decide how the phase is charged.
	chunkRows int
	// lw holds one lowerer per shard. Each carries a fork of the query's
	// device placer and of its memory budget (nil on the homogeneous and
	// unbudgeted engines), so every simulated worker host places morsels
	// on its own device state and spills against its own host memory
	// while charging the one query-level aggregate. budget is the query
	// budget itself, which coordinator memory is charged to.
	lw     []*lowerer
	budget *relational.MemoryBudget
	// guard is the per-execution lifecycle guard root wires to the query
	// run, and the only handle the execution has on the fabric: it
	// resolves shards to live replicas, runs every movement phase and
	// fragment round, and lands injected faults.
	guard *lifecycle.Guard
	// local[ji] marks a join whose legs are co-placed on its keys
	// (colocated): it takes the local movement and moves nothing.
	local []bool
}

// lowerer returns a private copy of shard s's lowerer whose placed
// kernels amortize device setup over hint expected rows.
func (e *distExec) lowerer(s, hint int) *lowerer {
	lw := *e.lw[s]
	lw.hintRows = hint
	return &lw
}

// shardHint spreads a cardinality estimate over the shards.
func (e *distExec) shardHint(rows int) int {
	return (rows + len(e.lw) - 1) / len(e.lw)
}

// legStream builds leg i's stream over its table shards: the shards of
// the leg's kept columns (dist.ShardedTable.Pick: windows of a range
// placement, gathered once and cached by a hash placement), a
// pass-through projection over them, then the pushed-down filter.
func (e *distExec) legStream(i int) *distStream {
	leg, t := e.lp.legs[i], e.tables[i]
	cols := leg.prune
	if cols == nil {
		cols = identityPicks(len(leg.rel.Schema))
	}
	st := &distStream{dx: e, base: make([]*relational.Relation, t.ShardCount()), schema: leg.schema, hint: e.shardHint(leg.rel.Len())}
	for s := range st.base {
		st.base[s] = t.Pick(s, cols)
	}
	st.project(leg.schema, pickExprs(identityPicks(len(cols))))
	st.filter(leg.pushed)
	return st
}

// front executes what every query shares: leg fragments, join
// movements, residual filter.
func (e *distExec) front() (*distStream, error) {
	st := e.legStream(0)
	for ji := range e.lp.joins {
		var err error
		if st, err = e.joinStage(st, e.legStream(ji+1), ji); err != nil {
			return nil, err
		}
	}
	st.filter(e.lp.residual)
	return st, nil
}

// coordinator returns the lowerer and leaf of the coordinator's
// post-gather plan over rel — after the gather is charged, so it moves no
// modeled byte. It is the batch engine, scanning the gathered vectors as
// they stand: its sort is the typed radix sort, its ORDER BY + LIMIT one
// top-k, and its pipeline breakers charge the query budget (nil when
// unbudgeted) — coordinator memory is host memory too. Its leaf checks the
// query's cancel token like every shard's. No placer: the coordinator is
// not one of the simulated worker hosts.
func (e *distExec) coordinator(rel *relational.Relation) (*lowerer, execNode) {
	lw := &lowerer{parallel: true, workers: e.workers, budget: e.budget, cancel: e.cancel}
	return lw, lw.scan(rel)
}

// root installs the distributed plan's Run, the whole execution: the
// shared front, then tail — which lowers the last shard-local stage,
// charges the gather, and drains the coordinator's operator tree into the
// result.
func (e *distExec) root(p *Planned, schema relational.Schema, tail func(*distStream) (*relational.Relation, error)) *Planned {
	p.Schema = schema
	p.run = func() (*relational.Relation, error) {
		// Register with the shared fabric under the session's QoS
		// identity, and Close on every path: an abandoned registration —
		// a run that errors out mid-phase, say — would park concurrent
		// queries at the admission barrier forever.
		qr := e.eng.fabric.NewQueryQoS(e.cancel, e.class, e.weight)
		defer qr.Close()
		// The guard installs itself as qr's host resolver; every later
		// phase and fragment round routes through it.
		e.guard = e.eng.lcm.NewGuard(qr)
		st, err := e.front()
		if err != nil {
			return nil, err
		}
		res, err := tail(st)
		if err != nil {
			return nil, err
		}
		// Fold in the modeled out-of-core I/O time the shard budgets
		// accumulated beside the network time.
		p.net = qr.Finish()
		if e.budget != nil {
			sp := e.budget.Stats()
			p.net.SpillSeconds = sp.WriteSeconds + sp.ReadSeconds
		}
		return res, nil
	}
	return p
}

// move charges one movement phase — a broadcast, a shuffle or a gather —
// and is the only way one reaches the fabric: the payload arrives cut into
// chunks by its dist chunker, and class and weightScale are the phase's
// QoS (see dist.GatherWeightBoost). What differs between the two engines
// is the charge, and this is where it is decided. Pipelined (chunkRows >
// 0): every chunk is an eager fabric sub-round, its modeled consumer
// compute overlapping the flows of the next. Bulk (0): the chunker cut one
// covering chunk, whose transfer list is the bulk one; it is admitted as
// one barrier round with no consumer compute charged. An empty payload has
// no chunk and still claims its phase ordinal — a fault scheduled there
// lands — and its (empty) phase record. The receiver takes the payload
// whole after move returns.
func (e *distExec) move(name string, chunks []dist.Chunk, class string, weightScale float64) error {
	if e.chunkRows > 0 {
		return e.guard.RunPipelined(name, chunks, class, weightScale)
	}
	var transfers []dist.Transfer
	if len(chunks) > 0 {
		transfers = chunks[0].Transfers
	}
	return e.guard.RunPhase(name, transfers, class, weightScale)
}

// chooseMovement picks broadcast vs repartition for one join by pricing
// both movements' slowest sender against the fabric's path capacity.
func (e *distExec) chooseMovement(buildBytes, probeBytes []float64) string {
	if e.distJoin == "broadcast" || e.distJoin == "repartition" {
		return e.distJoin
	}
	cluster := e.eng.cluster
	s := float64(cluster.Shards())
	bcast := make([]float64, len(buildBytes))
	repart := make([]float64, len(buildBytes))
	for i := range buildBytes {
		bcast[i] = buildBytes[i] * (s - 1)
		repart[i] = (buildBytes[i] + probeBytes[i]) * (s - 1) / s
	}
	if cluster.EstimateFanoutSeconds(bcast) <= cluster.EstimateFanoutSeconds(repart) {
		return "broadcast"
	}
	return "repartition"
}

// joinStage runs one join's data movement and appends the join decorator:
// the probe side's stream (and seq lineage) becomes the new current
// stream, exactly as the single-node probe side drives its output order.
func (e *distExec) joinStage(st *distStream, right *distStream, ji int) (*distStream, error) {
	jp := &e.lp.joins[ji]
	if !e.local[ji] {
		if err := st.materialize(); err != nil {
			return nil, err
		}
		if st.joined {
			// The current stream is about to move (or serve as a merged
			// build side); restore unique seq tags first.
			if err := st.reseq(); err != nil {
				return nil, err
			}
		}
		if err := right.materialize(); err != nil {
			return nil, err
		}
	}
	l, r := len(st.schema), len(right.schema)
	combined := append(append(relational.Schema{}, st.schema...), right.schema...)

	// Normalize to build/probe roles exactly as the single-node lowering
	// does: default build = current stream, probe = right leg; swapped
	// flips both. The probe side stays partitioned and its seq lineage
	// defines the output order.
	build, probe := st, right
	buildCol, probeCol := jp.leftCol, jp.rightCol
	if jp.swapped {
		build, probe = right, st
		buildCol, probeCol = jp.rightCol, jp.leftCol
	}
	buildWidth := len(build.schema)

	// Every movement lands the build side in hash tables — tabs[s] is the
	// one shard s probes — built from the moved rows once the phase is
	// charged.
	tabs := make([]*relational.HashBuild, len(probe.base))
	out := &distStream{dx: e, schema: combined, hint: e.shardHint(jp.size), joined: true}
	switch {
	case e.local[ji]:
		// Co-placed: only the build side materializes, and each shard's
		// table takes that shard's own build rows — seq-ascending, the
		// serial insertion order of every key the shard holds — without
		// a copy (nothing writes to them). The probe side keeps its
		// pending operators and its shards and joins below them. Nothing
		// crosses the fabric, but the phase still claims its ordinal: a
		// fault scheduled there lands on it, and a host that dies there
		// loses the tables it built, which its shards' new primaries
		// rebuild.
		if err := build.materialize(); err != nil {
			return nil, err
		}
		for s, rel := range build.base {
			var err error
			if tabs[s], err = relational.NewHashBuildOf(build.schema, buildCol, rel.Columnar(), rel.Len()); err != nil {
				return nil, err
			}
		}
		if err := e.guard.RunLocal(fmt.Sprintf("local#%d", ji), build.bytes()); err != nil {
			return nil, err
		}
		out.base, out.decor = probe.base, append(out.decor, probe.decor...)
	case e.chooseMovement(build.bytes(), probe.bytes()) == "broadcast":
		// Replicate the build side to every worker; the probe side does not
		// move. The seq-merged build side — the serial build's insertion
		// order — becomes one table every shard probes, adopting its
		// vectors.
		merged, chunks, _ := dist.BroadcastChunksCols(build.base, buildWidth, true, e.chunkRows)
		if err := e.move(fmt.Sprintf("broadcast#%d", ji), chunks, "", 0); err != nil {
			return nil, err
		}
		tab, err := relational.NewHashBuildOf(merged.Schema, buildCol, merged.Columnar(), merged.Len())
		if err != nil {
			return nil, err
		}
		out.base = probe.base
		for s := range tabs {
			tabs[s] = tab
		}
	default:
		// Hash-repartition both sides on the join key: their buckets are
		// charged in seq-rank chunks (build transfers ahead of probe
		// transfers within each chunk), and every destination's table
		// adopts its build bucket — seq-sorted, the serial insertion
		// order. Probe rows charge consumer compute too — they must be
		// received and staged into their buckets before the probe scan —
		// though only the build side feeds the tables.
		buildB, bChunks := dist.RepartitionChunks(build.base, buildCol, buildWidth, e.chunkRows)
		probeB, pChunks := dist.RepartitionChunks(probe.base, probeCol, len(probe.schema), e.chunkRows)
		chunks := make([]dist.Chunk, max(len(bChunks), len(pChunks)))
		for k := range chunks {
			for _, side := range [][]dist.Chunk{bChunks, pChunks} {
				if k < len(side) {
					chunks[k].Transfers = append(chunks[k].Transfers, side[k].Transfers...)
					chunks[k].ComputeBytes += side[k].ComputeBytes
				}
			}
		}
		if err := e.move(fmt.Sprintf("shuffle#%d", ji), chunks, "", 0); err != nil {
			return nil, err
		}
		for d, rel := range buildB {
			// The bucket still carries its seq column; the build table
			// takes the visible columns before it.
			var err error
			if tabs[d], err = relational.NewHashBuildOf(build.schema, buildCol, rel.Columnar(), rel.Len()); err != nil {
				return nil, err
			}
		}
		out.base = probeB
	}
	out.decor = append(out.decor, func(lw *lowerer, s int, n execNode) (execNode, error) {
		jn, err := lw.hashJoinPrebuilt(tabs[s], n, probeCol)
		if err != nil || !jp.swapped {
			// Unswapped output is left ++ (right ++ seq): already canonical.
			return jn, err
		}
		// right ++ left ++ seq becomes left ++ right ++ seq.
		return reorderColumns(lw, jn, r, l)
	})
	out.filter(jp.rest)
	return out, nil
}

// colocated reports whether join ji takes the local movement: the
// movement is not forced, both streams are base legs — only the first
// join's are; a later join's left stream is a join output — and both
// legs' tables are hash-placed on exactly the join columns, over the same
// shard count, with identical key types (Int and Float hash differently;
// a coded and a plain String hash alike). Equal keys then share a shard,
// so every match of a shard's probe rows is among its own build rows.
func (e *distExec) colocated(ji int) bool {
	if ji != 0 || (e.distJoin != "" && e.distJoin != "auto") {
		return false
	}
	jp := &e.lp.joins[ji]
	lt, rt := e.tables[0], e.tables[ji+1]
	lk, rk := e.lp.legs[0].column(jp.leftCol), e.lp.legs[ji+1].column(jp.rightCol)
	return lt.Strategy == dist.HashShard && rt.Strategy == dist.HashShard &&
		lt.KeyCol == lk && rt.KeyCol == rk && lt.ShardCount() == rt.ShardCount() &&
		lt.Rel.Schema[lk].Type == rt.Rel.Schema[rk].Type
}

// partitioned returns the visible columns of the stream front returns whose
// equal values share a shard — where a GROUP BY on one of them finds every
// row of a group on one shard. A base leg of a hash-placed table has its
// placement column (when pruning kept it); a local join's output has both
// key columns, since its probe side keeps its shards and matched keys are
// equal. Anything else has none: a range leg, a broadcast or repartition
// output (whose movement is only chosen at run time), and anything after a
// second join. It is a plan-time property of the stream, because Explain
// prints the aggregate it decides without running the query.
func (e *distExec) partitioned() []int {
	switch {
	case len(e.lp.joins) == 0:
		// A range placement's KeyCol is -1: no column matches.
		leg, t := e.lp.legs[0], e.tables[0]
		for c := range leg.schema {
			if leg.column(c) == t.KeyCol {
				return []int{c}
			}
		}
	case len(e.lp.joins) == 1 && e.local[0]:
		jp := &e.lp.joins[0]
		return []int{jp.leftCol, len(e.lp.legs[0].schema) + jp.rightCol}
	}
	return nil
}

func identityPicks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// planDist lowers the logical plan for shard-parallel execution. All
// compilation happens here, at plan time; data movement and fragment
// execution run lazily when the plan's root is first pulled.
func (pl *planner) planDist(stmt *SelectStmt, lp *logicalPlan, p *Planned) (*Planned, error) {
	dx, err := pl.newDistExec(lp, p)
	if err != nil {
		return nil, err
	}
	if stmt.HasAggregates() {
		return pl.planDistAggregate(stmt, p, dx)
	}
	return pl.planDistSimple(stmt, p, dx)
}

// newDistExec builds the execution context of lp: shard placements, the
// per-shard lowerers, and the Explain lines up to the aggregate or
// projection.
func (pl *planner) newDistExec(lp *logicalPlan, p *Planned) (*distExec, error) {
	// The engine's own DistJoin was checked at NewEngine; a session
	// override (tenants.json dist_join) is checked nowhere else.
	if err := checkDistJoin(pl.cfg.DistJoin); err != nil {
		return nil, err
	}
	eng := pl.eng
	shards := eng.cluster.Shards()
	dx := &distExec{
		lp: lp, eng: eng, cancel: pl.cancel,
		workers: pl.cfg.Workers, distJoin: pl.cfg.DistJoin,
		class: pl.class, weight: pl.weight,
		chunkRows: pl.cfg.PipelineChunkRows,
	}
	// Where each leg lives: the column a hash-placed table hashes on, ""
	// for a range-placed one.
	placedOn := make([]string, len(lp.legs))
	hashed := 0
	for i, leg := range lp.legs {
		t := eng.shardedTable(leg.rel)
		dx.tables = append(dx.tables, t)
		if t.Strategy == dist.HashShard {
			placedOn[i] = leg.rel.Schema[t.KeyCol].Name
			hashed++
		}
	}
	movement := pl.cfg.DistJoin
	if movement == "" {
		movement = "auto"
	}
	movements := make([]string, len(lp.joins))
	dx.local = make([]bool, len(lp.joins))
	for ji := range lp.joins {
		movements[ji] = movement
		if dx.local[ji] = dx.colocated(ji); dx.local[ji] {
			movements[ji] = "local"
		}
	}
	shardHow := "range"
	switch {
	case hashed == len(lp.legs):
		shardHow = "hash"
	case hashed > 0:
		shardHow = "mixed"
	}
	p.Steps = append(p.Steps, fmt.Sprintf("engine: distributed (%d shards, %s-sharded, %s fabric; batch fragments, %d workers/host)",
		shards, shardHow, eng.cluster.Topology, relational.EffectiveWorkers(pl.cfg.Workers)))
	p.Steps = append(p.Steps, lp.frontSteps(shards, placedOn, movements)...)
	if dx.chunkRows > 0 {
		p.Steps = append(p.Steps, fmt.Sprintf("pipeline: chunked movement (%d rows/chunk, eager sub-rounds; gather weight x%d)",
			dx.chunkRows, dist.GatherWeightBoost))
	}
	if err := pl.resources(p, " (independent per-shard placement)", " (independent per-shard budgets)"); err != nil {
		return nil, err
	}
	dx.budget = p.budget
	dx.lw = make([]*lowerer, shards)
	for s := range dx.lw {
		lw := &lowerer{parallel: true, workers: dx.workers, cancel: pl.cancel}
		if p.placer != nil {
			lw.placer = p.placer.Fork()
		}
		lw.budget = p.budget.Fork()
		dx.lw[s] = lw
	}
	return dx, nil
}

// planDistAggregate splits the aggregate into per-shard folds over the
// pre-projection (pushed below the gather). Which way it finishes depends
// on where the groups live. When a group column's pre-projection passes
// through a column the front's stream is partitioned on (partitioned), the
// groups are disjoint across shards and each shard finishes its own
// (planDistGroupLocal). Otherwise — a global aggregate, a group key that is
// an expression over the placement column, any group-by over a range or
// unplaced stream — a partial-state gather feeds the coordinator's
// first-seen merge and the single-node post-plan (HAVING / ORDER BY /
// projection / LIMIT).
func (pl *planner) planDistAggregate(stmt *SelectStmt, p *Planned, dx *distExec) (*Planned, error) {
	ap, err := buildAggPlan(stmt, dx.lp.scope, dx.lp.schema)
	if err != nil {
		return nil, err
	}
	aggOutSchema, err := relational.AggOutputSchema(ap.preSchema, ap.groupCols, ap.aggSpecs)
	if err != nil {
		return nil, err
	}
	part := dx.partitioned()
	for g := range ap.groupCols {
		if slices.Contains(part, ap.pre[g].Col) {
			return pl.planDistGroupLocal(stmt, p, dx, ap, aggOutSchema, stmt.GroupBy[g].Render())
		}
	}
	p.Steps = append(p.Steps, fmt.Sprintf("partial aggregate per shard (%d group cols, %d aggregates)", len(ap.groupCols), len(ap.aggSpecs)))
	p.Steps = append(p.Steps, "gather partials to coordinator; merge in first-seen order")

	// Dry-run the coordinator plan: surfaces compile errors at plan time
	// and yields the output schema and the coordinator's step lines.
	dryLw, dryLeaf := dx.coordinator(relational.NewRelation("agg", aggOutSchema))
	dry, err := pl.finishAggregate(stmt, &Planned{TaggedOps: map[string]OpStatser{}}, dryLw, dryLeaf, ap)
	if err != nil {
		return nil, err
	}
	for _, s := range dry.Steps {
		p.Steps = append(p.Steps, "coordinator "+s)
	}

	return dx.root(p, dry.Schema, func(st *distStream) (*relational.Relation, error) {
		partials, err := dx.partialAggs(st, ap)
		if err != nil {
			return nil, err
		}
		// The gather: each shard's partial is charged as generations of at
		// most chunkRows groups (one, on the bulk engine); the coordinator
		// then folds the shards' partials whole, in shard order.
		subs := make([][]*relational.PartialAgg, len(partials))
		for i, pa := range partials {
			subs[i] = pa.SplitChunks(dx.chunkRows)
		}
		if err := dx.move("gather", dist.PartialGatherChunks(subs), dist.GatherClass, dist.GatherWeightBoost); err != nil {
			return nil, err
		}
		aggCols, n := relational.MergeAll(partials).EmitCols(aggOutSchema, true)
		aggRel := relational.NewColumnRelation("agg", aggOutSchema, aggCols, n)
		// The coordinator's post-plan (HAVING/sort/project/limit) charges
		// the query-level budget: coordinator memory is host memory too.
		lw, leaf := dx.coordinator(aggRel)
		fin, err := pl.finishAggregate(stmt, &Planned{TaggedOps: map[string]OpStatser{}}, lw, leaf, ap)
		if err != nil {
			return nil, err
		}
		return fin.Run()
	}), nil
}

// planDistGroupLocal finishes an aggregate whose groups are co-placed —
// every row of a group on one shard — on the shards. Each shard's fold is
// the partial-aggregate round of the gathering path, so its group states
// are the ones that path would ship; instead each shard emits its final
// groups in first-seen order, tagged with their first seq (the rows' global
// order, unique across shards: join fan-out duplicates of one tag stay on
// one shard), and runs HAVING and the shared gather tail over them in one
// more guarded fragment round. Only the rows that can reach the result
// cross the fabric — at most shards × LIMIT with a LIMIT — and the
// coordinator's seq merge of the survivors is the single node's group
// order, which its sort, top-k or limit then reads as the single node's
// does.
func (pl *planner) planDistGroupLocal(stmt *SelectStmt, p *Planned, dx *distExec, ap *aggPlan, aggOutSchema relational.Schema, on string) (*Planned, error) {
	post := ap.postScope(stmt)
	p.Steps = append(p.Steps, fmt.Sprintf("aggregate per shard (groups co-placed on %s)", on))
	var having *planFilter
	if stmt.Having != nil {
		var err error
		if having, err = compileFilter(post, stmt.Having); err != nil {
			return nil, err
		}
		p.Steps = append(p.Steps, "having per shard: "+stmt.Having.Render())
	}
	schema, tail, err := dx.gatherTail(stmt, p, stmt.Items, post, aggOutSchema)
	if err != nil {
		return nil, err
	}
	return dx.root(p, schema, func(st *distStream) (*relational.Relation, error) {
		partials, err := dx.partialAggs(st, ap)
		if err != nil {
			return nil, err
		}
		groups := &distStream{dx: dx, base: make([]*relational.Relation, len(partials)), schema: aggOutSchema}
		for s, pa := range partials {
			cols, n := pa.EmitSeqCols(aggOutSchema)
			groups.base[s] = relational.NewColumnRelation("groups", withSeq(aggOutSchema), cols, n)
		}
		groups.filter(having)
		return tail(groups)
	}), nil
}

// partialAggs runs the aggregate's per-shard fold: st's pre-projection,
// then a fragment round — guarded like every other, so a straggling
// shard's fold gets a speculative duplicate — whose shards fold their
// streams into partials on their own dispatchers and budgets.
func (dx *distExec) partialAggs(st *distStream, ap *aggPlan) ([]*relational.PartialAgg, error) {
	st.project(ap.preSchema, ap.pre)
	// Each shard's aggregation dispatcher and budget (nil entries on the
	// homogeneous and unbudgeted engines).
	disps := make([]*exec.Dispatcher, len(dx.lw))
	budgets := make([]*relational.MemoryBudget, len(dx.lw))
	for s := range dx.lw {
		lw := dx.lowerer(s, st.hint)
		disps[s], budgets[s] = lw.dispatcher(exec.AggWork, 0), lw.budget
	}
	return dx.guard.RunPartialAggs(len(st.base), st.fragment,
		dist.PartialAggSink(ap.groupCols, ap.aggSpecs, len(ap.preSchema), dx.workers, disps, budgets))
}

// planDistSimple handles non-aggregate queries: the front's stream runs
// the gather tail directly.
func (pl *planner) planDistSimple(stmt *SelectStmt, p *Planned, dx *distExec) (*Planned, error) {
	schema, tail, err := dx.gatherTail(stmt, p, selectItems(stmt, dx.lp.scope), dx.lp.scope, dx.lp.schema)
	if err != nil {
		return nil, err
	}
	return dx.root(p, schema, tail), nil
}

// gatherTail plans how a shard stream over in (bound by sc) finishes:
// the select items (and any ORDER BY key columns) compute per shard below
// the gather; the coordinator merges by seq — exactly the serial row order
// — then sorts, strips keys and applies LIMIT. A LIMIT also cuts every
// shard's stream below the gather, so at most shards × LIMIT rows move: to
// its first rows without ORDER BY, to its best rows by the keys with one.
// It writes the Explain lines and returns the result schema and the run.
func (dx *distExec) gatherTail(stmt *SelectStmt, p *Planned, items []SelectItem, sc *scope, in relational.Schema) (relational.Schema, func(*distStream) (*relational.Relation, error), error) {
	itemSchema, itemExprs, err := compileItems(items, sc, in)
	if err != nil {
		return nil, nil, err
	}
	keyCols, keyExprs, descs, err := compileOrderKeys(stmt.OrderBy, items, sc, in)
	if err != nil {
		return nil, nil, err
	}
	wideSchema := append(append(relational.Schema{}, itemSchema...), keyCols...)
	wideExprs := append(append([]relational.ProjExpr{}, itemExprs...), keyExprs...)

	// The coordinator's strip projection only drops the key columns, so
	// ORDER BY + LIMIT there is one top-k.
	p.Steps = append(p.Steps, "project "+itemNames(items)+" per shard")
	gather := "gather to coordinator (seq-ordered merge)"
	switch {
	case len(keyCols) > 0 && stmt.Limit >= 0:
		p.Steps = append(p.Steps, fmt.Sprintf("top-k %d per shard", stmt.Limit))
		gather += fmt.Sprintf("; top-k %d", stmt.Limit)
	case len(keyCols) > 0:
		gather += "; sort"
	}
	p.Steps = append(p.Steps, gather)
	if len(keyCols) == 0 && stmt.Limit >= 0 {
		p.Steps = append(p.Steps, fmt.Sprintf("limit %d", stmt.Limit))
	}

	return itemSchema, func(st *distStream) (*relational.Relation, error) {
		st.project(wideSchema, wideExprs)
		if stmt.Limit >= 0 && len(keyCols) == 0 {
			// Correct below a gather: the merged global prefix of length n
			// draws at most the first n rows of any one shard stream.
			st.decor = append(st.decor, func(lw *lowerer, _ int, n execNode) (execNode, error) {
				return lw.limit(n, stmt.Limit), nil
			})
		} else if stmt.Limit >= 0 {
			// Correct below a gather too: a row of the global top n has
			// fewer than n better rows in its own shard, ties resolving by
			// #seq on both sides (join fan-out duplicates of one tag stay
			// on one shard). The survivors keep #seq order for the merge.
			keys := sortKeysAt(len(itemSchema), descs)
			st.decor = append(st.decor, func(lw *lowerer, _ int, n execNode) (execNode, error) {
				return lw.shardTopK(n, keys, stmt.Limit)
			})
		}
		if err := st.materialize(); err != nil {
			return nil, err
		}
		// The gather: charged in seq-rank chunks, then the coordinator's
		// seq merge of the shards — the serial row order.
		seqCol := len(wideSchema)
		chunks, _ := dist.GatherChunks(st.base, seqCol, dx.chunkRows)
		if err := dx.move("gather", chunks, dist.GatherClass, dist.GatherWeightBoost); err != nil {
			return nil, err
		}
		lw, cur := dx.coordinator(dist.MergeBySeq("gathered", st.base, seqCol, true))
		if len(keyCols) > 0 {
			// stmt.Limit is the top-k bound; absent (-1) is a full sort.
			var err error
			if cur, err = sortByTrailingKeys(lw, cur, descs, stmt.Limit); err != nil {
				return nil, err
			}
		} else if stmt.Limit >= 0 {
			cur = lw.limit(cur, stmt.Limit)
		}
		return lw.drain(cur)
	}, nil
}
