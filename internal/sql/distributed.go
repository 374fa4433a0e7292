package sql

// The distributed lowering path: queries plan as per-shard batch
// fragments over the sharded catalog, with filters and projections pushed
// below every shuffle; joins choose broadcast or hash-repartition
// movement by a cost rule priced against the fabric's path capacity;
// aggregates split into per-shard partials merged at the coordinator in
// global first-seen order. Every inter-host movement — build-side
// broadcasts, repartition shuffles, the final gather — is charged as
// flows in the network simulator, so a distributed plan reports rows AND
// simulated network time, bytes shuffled and per-link utilization.
//
// Determinism: every shard-local stream carries the hidden #seq column
// (the row's index in the original relation, or the probe-side lineage
// after joins) and stays seq-ascending through every operator, so the
// coordinator's k-way merge — and the partial-agg first-seen merge —
// reproduce the single-node engine's output row-for-row.

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/lifecycle"
	"repro/internal/relational"
)

// distRoot is the lazy root of a distributed plan: the whole distributed
// execution (fragments, shuffles, gather, coordinator finalization) runs
// on first Next, then the result streams row-at-a-time.
type distRoot struct {
	schema relational.Schema
	run    func() (*relational.Relation, *dist.QueryStats, error)

	started bool
	rel     *relational.Relation
	stats   *dist.QueryStats
	err     error
	pos     int
	stat    relational.OpStats
}

// Schema implements relational.Op.
func (d *distRoot) Schema() relational.Schema { return d.schema }

// Next implements relational.Op.
func (d *distRoot) Next() (relational.Row, bool, error) {
	if !d.started {
		d.started = true
		d.rel, d.stats, d.err = d.run()
	}
	if d.err != nil {
		return nil, false, d.err
	}
	if d.pos >= len(d.rel.Rows) {
		return nil, false, nil
	}
	r := d.rel.Rows[d.pos]
	d.pos++
	d.stat.RowsOut++
	return r, true, nil
}

// Stats implements relational.Op.
func (d *distRoot) Stats() relational.OpStats { return d.stat }

// seqColumn is the schema entry of the hidden sequence column.
func seqColumn() relational.Column {
	return relational.Column{Name: dist.SeqColName, Type: relational.Int}
}

// withSeq appends the hidden sequence column to a visible schema.
func withSeq(schema relational.Schema) relational.Schema {
	return append(append(relational.Schema{}, schema...), seqColumn())
}

// decorFn is one pending shard-local operator: it wraps the shard's
// current stream (whose schema is the visible columns plus trailing
// #seq). The shard index lets join decorators bind shard-specific build
// sides.
type decorFn func(shard int, op relational.BatchOp) (relational.BatchOp, error)

// distStream is the runtime state of the partitioned intermediate: the
// materialized per-shard relations plus pending decorators applied when
// the next stage builds its fragments. Every base relation and every
// decorated stream is #seq-ascending.
type distStream struct {
	base   []*relational.Relation
	decor  []decorFn
	schema relational.Schema // visible columns (excludes #seq)
	// cancel, when set, guards every built fragment so external
	// cancellation reaches each shard worker at its next batch boundary.
	cancel *relational.CancelToken
	// joined marks a stream that passed through a join: fan-out
	// duplicates its seq tags, so the stream must be re-sequenced before
	// it moves between shards again.
	joined bool
	// dx links back to the execution context so materialize can route
	// fragment rounds through the lifecycle guard (straggler speculation,
	// replica-aware dispatch) when one is active.
	dx *distExec
}

func (st *distStream) fragment(s int) (relational.BatchOp, error) {
	var op relational.BatchOp = relational.NewBatchScan(st.base[s])
	for _, d := range st.decor {
		var err error
		op, err = d(s, op)
		if err != nil {
			return nil, err
		}
	}
	return relational.GuardBatch(op, st.cancel), nil
}

func (st *distStream) fragments() ([]relational.BatchOp, error) {
	out := make([]relational.BatchOp, len(st.base))
	for s := range st.base {
		var err error
		if out[s], err = st.fragment(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// materialize runs the pending decorators on every shard (in parallel,
// one simulated host each) and replaces the base relations. With an
// active lifecycle guard the round runs through it: a straggling shard
// gets a speculative duplicate (the guard rebuilds the fragment via
// st.fragment), and fragments follow live replicas.
func (st *distStream) materialize(workers int) error {
	if len(st.decor) == 0 {
		return nil
	}
	var rels []*relational.Relation
	var err error
	if st.dx != nil && st.dx.guard != nil {
		rels, err = st.dx.guard.RunFragments("frag", len(st.base), workers, st.fragment)
	} else {
		var frags []relational.BatchOp
		if frags, err = st.fragments(); err != nil {
			return err
		}
		rels, err = dist.RunFragments("frag", frags, workers)
	}
	if err != nil {
		return err
	}
	st.base, st.decor = rels, nil
	return nil
}

// reseq replaces the stream's seq tags with their global merge rank,
// restoring uniqueness after join fan-out duplicated them (duplicates
// are confined to one shard, so the k-way merge is still the exact
// serial order). It relabels tags in place without moving row data —
// the real-system analogue is a counts-only prefix exchange — so no
// flow is charged.
func (st *distStream) reseq(workers int) error {
	if err := st.materialize(workers); err != nil {
		return err
	}
	seqCol := len(st.schema)
	var rank int64
	dist.ForEachBySeq(st.base, seqCol, func(shard, row int) {
		st.base[shard].Rows[row][seqCol] = relational.IntV(rank)
		rank++
	})
	for _, rel := range st.base {
		rel.InvalidateColumnar()
	}
	st.joined = false
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

// pickDecor projects every shard stream to the given child columns.
func pickDecor(schema relational.Schema, picks []int) decorFn {
	return func(_ int, op relational.BatchOp) (relational.BatchOp, error) {
		return pickProject(op, schema, picks)
	}
}

func pickProject(op relational.BatchOp, schema relational.Schema, picks []int) (relational.BatchOp, error) {
	pe := make([]relational.ProjExpr, len(picks))
	for i, idx := range picks {
		pe[i] = relational.Pick(idx)
	}
	return relational.NewBatchProject(op, schema, pe)
}

// filterDecor applies kernel ranges plus a residual predicate. disps,
// when non-nil, routes shard s's filter morsels through disps[s] — the
// per-worker-host device dispatcher.
func filterDecor(ranges []relational.ColRange, pred relational.Predicate, disps []*exec.Dispatcher) decorFn {
	return func(s int, op relational.BatchOp) (relational.BatchOp, error) {
		bf := relational.NewBatchFilter(op, ranges, pred)
		if s < len(disps) && disps[s] != nil {
			bf.Place(disps[s])
		}
		return bf, nil
	}
}

// exprProjDecor projects to schema (which already carries the trailing
// #seq column): exprs produce the visible columns, and the child's seq
// column (at childSeqIdx) passes through last. disps, when non-nil,
// places each shard's computed-expression morsels on its own devices
// (pure pass-through projections are never placed).
func exprProjDecor(schema relational.Schema, exprs []relational.ProjExpr, childSeqIdx int, disps []*exec.Dispatcher) decorFn {
	pe := append(append([]relational.ProjExpr{}, exprs...), relational.Pick(childSeqIdx))
	return func(s int, op relational.BatchOp) (relational.BatchOp, error) {
		bp, err := relational.NewBatchProject(op, schema, pe)
		if err != nil {
			return nil, err
		}
		if s < len(disps) && disps[s] != nil && bp.ExprCount() > 0 {
			bp.Place(disps[s])
		}
		return bp, nil
	}
}

// limitDecor caps each shard's stream at n rows. Correct below a gather:
// the merged global prefix of length n draws at most the first n rows of
// any one shard stream.
func limitDecor(n int) decorFn {
	return func(_ int, op relational.BatchOp) (relational.BatchOp, error) {
		return relational.NewBatchLimit(op, n), nil
	}
}

// distLegPlan is one table leg's compiled shard-local fragment: prune
// picks, then the pushed-down filter.
type distLegPlan struct {
	table  *dist.ShardedTable
	prune  []int // original column indexes kept
	schema relational.Schema
	ranges []relational.ColRange
	pred   relational.Predicate
	// shardRows is the expected per-shard input cardinality, the setup
	// amortization hint for this leg's placed kernels.
	shardRows int
}

// stream builds the leg's distStream over its table shards.
func (lp *distLegPlan) stream(dx *distExec) *distStream {
	st := &distStream{base: lp.table.Shards, schema: lp.schema, cancel: dx.cancel, dx: dx}
	picks := append(append([]int{}, lp.prune...), lp.table.SeqCol())
	st.decor = append(st.decor, pickDecor(withSeq(lp.schema), picks))
	if lp.ranges != nil || lp.pred != nil {
		st.decor = append(st.decor, filterDecor(lp.ranges, lp.pred,
			dx.dispatchers(exec.Dispatch{Kind: exec.FilterWork, ExpectedRows: lp.shardRows})))
	}
	return st
}

// distJoinPlan is one compiled join stage. swapped mirrors the
// single-node build-side choice exactly, so the probe side — and with it
// the output row order — matches the single-node engine.
type distJoinPlan struct {
	rightIdx          int
	leftCol, rightCol int
	swapped           bool
	rightSchema       relational.Schema
	residualRanges    []relational.ColRange
	residualPred      relational.Predicate
}

// distExec carries the runtime context of one distributed execution:
// the placement, the engine's shared fabric the run registers with, the
// cancellation token guarding fragments and phase waits, and the
// session's QoS identity stamped onto every flow the run charges.
type distExec struct {
	cluster  *dist.Cluster
	fabric   *dist.Fabric
	cancel   *relational.CancelToken
	workers  int
	distJoin string // "", "auto", "broadcast", "repartition"
	class    string
	weight   float64
	// chunkRows > 0 pipelines every movement phase: payloads split into
	// seq-rank chunks admitted as eager fabric sub-rounds while the
	// receiving side digests the previous chunk (incremental hash builds,
	// generation-wise partial-agg folds, streaming seq merge). 0 is the
	// bulk engine, bit-identical with pre-pipeline code paths.
	chunkRows int
	// place holds one device placer per shard (nil on the homogeneous
	// engine): forks of the query placer, so every simulated worker
	// host decides morsel placement independently on its own device
	// state while charging one query-level aggregate. shardRowHint is
	// the planner's post-join per-shard cardinality estimate, the setup
	// amortization hint for kernels placed above the joins (mirroring
	// the single-node lowerer's hintRows).
	place        []*exec.Placer
	shardRowHint int
	// budget is the query-level memory budget (nil on the unbudgeted
	// engine); shardBudget holds its per-shard forks, so every simulated
	// worker host accounts its fragment state against its own host
	// memory while spill totals fold into the one query aggregate —
	// exactly the placer/fork relationship, for memory.
	budget      *relational.MemoryBudget
	shardBudget []*relational.MemoryBudget
	// lcm is the engine's elastic-membership manager (nil on static,
	// failure-free clusters — the common case, which keeps every phase on
	// the pre-lifecycle code paths bit-identically). guard is the
	// per-execution lifecycle guard attachGuard wires to the query run:
	// it resolves shards to live replicas and lands injected faults.
	lcm   *lifecycle.Manager
	guard *lifecycle.Guard
}

// coordinator returns the lowerer and leaf of the coordinator's
// post-gather plan over rel — after the gather is charged, so whichever
// engine runs it moves no modeled byte. An ORDER BY goes to the batch
// engine, whose sort is the typed radix sort and whose ORDER BY + LIMIT
// is one top-k; everything else reads the gathered rows in place on the
// row engine. Under a memory budget the row engine stays throughout: its
// accounting-only spill model is what coordinator memory is priced with.
func (e *distExec) coordinator(rel *relational.Relation, ordered bool) (*lowerer, execNode) {
	if e.batchCoordinator(ordered) {
		return &lowerer{parallel: true, workers: e.workers}, execNode{bat: relational.NewBatchScan(rel)}
	}
	return &lowerer{budget: e.budget}, execNode{row: relational.NewScan(rel)}
}

func (e *distExec) batchCoordinator(ordered bool) bool { return ordered && e.budget == nil }

// attachGuard wires the execution into the elastic cluster view: the
// guard installs itself as qr's host resolver and every later phase and
// fragment round routes through it. A nil manager leaves the run on the
// static placement.
func (e *distExec) attachGuard(qr *dist.QueryRun) {
	if e.lcm != nil {
		e.guard = e.lcm.NewGuard(qr)
	}
}

// runPhase routes one bulk movement phase through the lifecycle guard
// when one is active (fault injection, replica-aware endpoints) and
// straight to the query run otherwise — the pre-lifecycle path,
// bit-identical.
func (e *distExec) runPhase(qr *dist.QueryRun, name string, transfers []dist.Transfer, class string, weightScale float64) error {
	if e.guard != nil {
		return e.guard.RunPhase(name, transfers, class, weightScale)
	}
	return qr.RunPhaseQoS(name, transfers, class, weightScale)
}

// runPipelined is runPhase for chunked movement phases.
func (e *distExec) runPipelined(qr *dist.QueryRun, name string, chunks []dist.Chunk, class string, weightScale float64, consume func(k int) error) error {
	if e.guard != nil {
		return e.guard.RunPipelined(name, chunks, class, weightScale, consume)
	}
	return qr.RunPipelined(name, chunks, class, weightScale, consume)
}

// dispatchers builds one per-shard dispatcher for a kernel, or nil on
// the homogeneous engine. Each distStream decorator that lowers a
// placeable operator calls it once, so a shard's partitions share one
// dispatcher exactly as on the single-node engine.
func (e *distExec) dispatchers(cfg exec.Dispatch) []*exec.Dispatcher {
	if e.place == nil {
		return nil
	}
	out := make([]*exec.Dispatcher, len(e.place))
	for i, p := range e.place {
		out[i] = p.Dispatcher(cfg)
	}
	return out
}

// finishStats finalizes a run's network stats and folds in the modeled
// out-of-core I/O time the shard budgets accumulated (zero-valued on the
// unbudgeted engine).
func (e *distExec) finishStats(qr *dist.QueryRun) *dist.QueryStats {
	qs := qr.Finish()
	if e.budget != nil {
		sp := e.budget.Stats()
		qs.SpillSeconds = sp.WriteSeconds + sp.ReadSeconds
	}
	return qs
}

// newQuery registers one execution with the shared fabric under the
// session's QoS identity. Callers must Close (or Finish) the returned
// run on every path: an abandoned registration would park concurrent
// queries at the admission barrier.
func (e *distExec) newQuery() *dist.QueryRun {
	return e.fabric.NewQueryQoS(e.cancel, e.class, e.weight)
}

// chooseMovement picks broadcast vs repartition for one join by pricing
// both movements' slowest sender against the fabric's path capacity.
func (e *distExec) chooseMovement(buildBytes, probeBytes []float64) string {
	if e.distJoin == "broadcast" || e.distJoin == "repartition" {
		return e.distJoin
	}
	s := float64(e.cluster.Shards())
	bcast := make([]float64, len(buildBytes))
	repart := make([]float64, len(buildBytes))
	for i := range buildBytes {
		bcast[i] = buildBytes[i] * (s - 1)
		repart[i] = (buildBytes[i] + probeBytes[i]) * (s - 1) / s
	}
	if e.cluster.EstimateFanoutSeconds(bcast) <= e.cluster.EstimateFanoutSeconds(repart) {
		return "broadcast"
	}
	return "repartition"
}

// joinStage runs one join's data movement and appends the join decorator:
// the probe side's stream (and seq lineage) becomes the new current
// stream, exactly as the single-node probe side drives its output order.
func (e *distExec) joinStage(qr *dist.QueryRun, st *distStream, right *distStream, jp *distJoinPlan, ji int) (*distStream, error) {
	if err := st.materialize(e.workers); err != nil {
		return nil, err
	}
	if st.joined {
		// The current stream is about to move (or serve as a merged
		// build side); restore unique seq tags first.
		if err := st.reseq(e.workers); err != nil {
			return nil, err
		}
	}
	if err := right.materialize(e.workers); err != nil {
		return nil, err
	}
	l, r := len(st.schema), len(jp.rightSchema)
	combined := append(append(relational.Schema{}, st.schema...), jp.rightSchema...)
	cancel := st.cancel

	// Normalize to build/probe roles, mirroring the single-node planner:
	// default build = current stream, probe = right leg; swapped flips
	// both. The probe side stays partitioned and its seq lineage defines
	// the output order.
	build, probe := st, right
	buildCol, probeCol := jp.leftCol, jp.rightCol
	if jp.swapped {
		build, probe = right, st
		buildCol, probeCol = jp.rightCol, jp.leftCol
	}
	buildWidth := len(build.schema)
	movement := e.chooseMovement(build.bytes(), probe.bytes())

	// buildFor lowers shard s's build stream (the bulk path); preFor,
	// when set instead, yields the incrementally appended hash table the
	// pipelined movement already filled (see RunPipelined below).
	var buildFor func(s int) (relational.BatchOp, error)
	var preFor func(s int) *relational.HashBuild
	out := &distStream{schema: combined, cancel: cancel, joined: true, dx: e}
	switch {
	case movement == "broadcast" && e.chunkRows > 0:
		// Pipelined replication: the merged build side streams out in
		// seq-rank chunks, and the shared hash table fills while the next
		// chunk's flows are in flight. Appending chunk prefixes of the
		// seq-merged relation reproduces the bulk build's insertion order
		// exactly.
		merged, chunks, bounds := dist.BroadcastChunks(build.base, buildWidth, true, e.chunkRows)
		pre, err := relational.NewHashBuild(merged.Schema, buildCol)
		if err != nil {
			return nil, err
		}
		prev := 0
		consume := func(k int) error {
			pre.Append(merged.Rows[prev:bounds[k]])
			prev = bounds[k]
			return nil
		}
		if err := e.runPipelined(qr, fmt.Sprintf("broadcast#%d", ji), chunks, "", 0, consume); err != nil {
			return nil, err
		}
		out.base = probe.base
		preFor = func(int) *relational.HashBuild { return pre }
	case movement == "broadcast":
		// Replicate the whole build side to every worker; the probe side
		// does not move.
		buildRel, transfers := dist.Broadcast(build.base, buildWidth, true)
		if err := e.runPhase(qr, fmt.Sprintf("broadcast#%d", ji), transfers, "", 0); err != nil {
			return nil, err
		}
		out.base = probe.base
		buildFor = func(int) (relational.BatchOp, error) {
			return relational.NewBatchScan(buildRel), nil
		}
	case e.chunkRows > 0:
		// Pipelined shuffle: both sides' buckets move in seq-rank chunks
		// (build transfers ahead of probe transfers within each chunk,
		// exactly the bulk phase's flow order), and every destination's
		// hash table inserts its landed build prefix while the next chunk
		// drains. Probe rows charge consumer compute too — they must be
		// received and staged into their buckets before the probe scan —
		// though only the build side feeds the incremental hash table.
		buildB, bChunks, bCum := dist.RepartitionChunks(build.base, buildCol, buildWidth, e.chunkRows)
		probeB, pChunks, _ := dist.RepartitionChunks(probe.base, probeCol, len(probe.schema), e.chunkRows)
		n := len(bChunks)
		if len(pChunks) > n {
			n = len(pChunks)
		}
		chunks := make([]dist.Chunk, n)
		for k := range chunks {
			var ts []dist.Transfer
			if k < len(bChunks) {
				ts = append(ts, bChunks[k].Transfers...)
				chunks[k].ComputeBytes += bChunks[k].ComputeBytes
			}
			if k < len(pChunks) {
				ts = append(ts, pChunks[k].Transfers...)
				chunks[k].ComputeBytes += pChunks[k].ComputeBytes
			}
			chunks[k].Transfers = ts
		}
		buildVisible := build.schema
		pres := make([]*relational.HashBuild, len(buildB))
		for i := range pres {
			var err error
			if pres[i], err = relational.NewHashBuild(buildVisible, buildCol); err != nil {
				return nil, err
			}
		}
		prev := make([]int, len(buildB))
		consume := func(k int) error {
			if k >= len(bCum) {
				return nil
			}
			for d := range buildB {
				rows := buildB[d].Rows[prev[d]:bCum[k][d]]
				if len(rows) == 0 {
					continue
				}
				stripped := make([]relational.Row, len(rows))
				for i, r := range rows {
					stripped[i] = r[:buildWidth]
				}
				pres[d].Append(stripped)
				prev[d] = bCum[k][d]
			}
			return nil
		}
		if err := e.runPipelined(qr, fmt.Sprintf("shuffle#%d", ji), chunks, "", 0, consume); err != nil {
			return nil, err
		}
		out.base = probeB
		preFor = func(s int) *relational.HashBuild { return pres[s] }
	default:
		// Hash-repartition both sides on the join key; bucket p's build
		// rows arrive seq-sorted, preserving the serial insertion order.
		buildB, tA := dist.Repartition(build.base, buildCol, buildWidth)
		probeB, tB := dist.Repartition(probe.base, probeCol, len(probe.schema))
		if err := e.runPhase(qr, fmt.Sprintf("shuffle#%d", ji), append(tA, tB...), "", 0); err != nil {
			return nil, err
		}
		out.base = probeB
		buildVisible := build.schema
		buildFor = func(s int) (relational.BatchOp, error) {
			return pickProject(relational.NewBatchScan(buildB[s]), buildVisible, identityPicks(buildWidth))
		}
	}
	workers, swapped := e.workers, jp.swapped
	out.decor = append(out.decor, func(s int, op relational.BatchOp) (relational.BatchOp, error) {
		var jn *relational.BatchHashJoin
		if preFor != nil {
			var err error
			jn, err = relational.NewBatchHashJoinPrebuilt(preFor(s), op, probeCol, workers)
			if err != nil {
				return nil, err
			}
		} else {
			bop, err := buildFor(s)
			if err != nil {
				return nil, err
			}
			jn, err = relational.NewBatchHashJoin(bop, op, buildCol, probeCol, workers)
			if err != nil {
				return nil, err
			}
		}
		if s < len(e.shardBudget) && e.shardBudget[s] != nil {
			jn.SetBudget(e.shardBudget[s])
		}
		if !swapped {
			// Output is left ++ (right ++ seq): already canonical.
			return jn, nil
		}
		// Restore canonical column order: right ++ left ++ seq becomes
		// left ++ right ++ seq.
		picks := make([]int, 0, l+r+1)
		for i := 0; i < l; i++ {
			picks = append(picks, r+i)
		}
		for i := 0; i < r; i++ {
			picks = append(picks, i)
		}
		picks = append(picks, r+l)
		return pickProject(jn, withSeq(combined), picks)
	})
	if jp.residualRanges != nil || jp.residualPred != nil {
		out.decor = append(out.decor, filterDecor(jp.residualRanges, jp.residualPred,
			e.dispatchers(exec.Dispatch{Kind: exec.FilterWork, ExpectedRows: e.shardRowHint})))
	}
	return out, nil
}

// countComputed reports how many projection outputs are computed
// expressions (not pass-through picks) — the placed kernel's width.
func countComputed(pe []relational.ProjExpr) int {
	c := 0
	for _, e := range pe {
		if e.Col < 0 {
			c++
		}
	}
	return c
}

func identityPicks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// planDistStmt is the distributed counterpart of planStmt. All analysis
// and compilation happens at plan time (so Plan surfaces errors and
// Explain describes the shape); data movement and fragment execution run
// lazily when the plan's root is first pulled.
func (pl *planner) planDistStmt(stmt *SelectStmt) (*Planned, error) {
	switch pl.cfg.DistJoin {
	case "", "auto", "broadcast", "repartition":
	default:
		return nil, fmt.Errorf("sql: unknown DistJoin strategy %q", pl.cfg.DistJoin)
	}
	cluster, fabric, err := pl.eng.clusterFor(pl.cfg)
	if err != nil {
		return nil, err
	}
	shards := cluster.Shards()
	workers := pl.cfg.Workers
	p := &Planned{TaggedOps: map[string]relational.Op{}}
	shardHow := "range"
	if pl.cfg.ShardHash {
		shardHow = "hash"
	}
	p.Steps = append(p.Steps, fmt.Sprintf("engine: distributed (%d shards, %s-sharded, %s fabric; batch fragments, %d workers/host)",
		shards, shardHow, cluster.Topology, relational.EffectiveWorkers(workers)))

	legs, err := pl.resolveLegs(stmt)
	if err != nil {
		return nil, err
	}
	if !stmt.Star {
		refs := collectQueryCols(stmt)
		for _, leg := range legs {
			pruneLeg(leg, refs)
		}
	}

	// Pushdown split and size estimates come from the same helpers the
	// single-node planner uses: the distributed plan must mirror its
	// build-side choice to keep probe-side output order identical.
	residual := pl.splitWhere(stmt, legs)

	legPlans := make([]*distLegPlan, len(legs))
	legSizes := make([]int, len(legs))
	for i, leg := range legs {
		lp := &distLegPlan{table: pl.eng.shardedTable(leg.rel, shards, pl.cfg.ShardHash), schema: leg.schema}
		if leg.prune != nil {
			lp.prune = leg.prune
			p.Steps = append(p.Steps, fmt.Sprintf("prune %s to %d/%d columns", leg.alias, len(leg.prune), len(leg.rel.Schema)))
		} else {
			lp.prune = identityPicks(len(leg.rel.Schema))
		}
		if len(leg.filter) > 0 {
			sc := &scope{}
			sc.addTable(leg.alias, leg.schema, 0)
			lp.ranges, lp.pred, err = lowerBatchFilter(sc, joinConjuncts(leg.filter))
			if err != nil {
				return nil, err
			}
			p.Steps = append(p.Steps, fmt.Sprintf("pushdown filter on %s below shuffle: %s", leg.alias, joinConjuncts(leg.filter).Render()))
		}
		lp.shardRows = (leg.rel.Len() + shards - 1) / shards
		legPlans[i] = lp
		legSizes[i] = legSizeEstimate(leg)
		p.Steps = append(p.Steps, fmt.Sprintf("scan %s as %s (%d rows over %d shards)", leg.rel.Name, leg.alias, leg.rel.Len(), shards))
	}

	// Left-deep joins, with the single-node build-side rule.
	curScope := &scope{}
	curScope.addTable(legs[0].alias, legs[0].schema, 0)
	curWidth := len(legs[0].schema)
	curSize := legSizes[0]
	joinPlans := make([]*distJoinPlan, 0, len(stmt.Joins))
	for ji, j := range stmt.Joins {
		leg := legs[ji+1]
		rightScope := &scope{}
		rightScope.addTable(leg.alias, leg.schema, 0)
		leftCol, rightCol, rest, err := pl.splitJoinOn(j.On, curScope, rightScope)
		if err != nil {
			return nil, err
		}
		jp := &distJoinPlan{
			rightIdx: ji + 1, leftCol: leftCol, rightCol: rightCol,
			swapped:     pl.buildOnRight(legSizes[ji+1], curSize),
			rightSchema: leg.schema,
		}
		curScope.addTable(leg.alias, leg.schema, curWidth)
		curWidth += len(leg.schema)
		if rest != nil {
			jp.residualRanges, jp.residualPred, err = lowerBatchFilter(curScope, rest)
			if err != nil {
				return nil, err
			}
			p.Steps = append(p.Steps, "post-join filter: "+rest.Render())
		}
		curSize = advanceJoinSize(curSize, legSizes[ji+1], leg.rel.Len())
		joinPlans = append(joinPlans, jp)
		movement := pl.cfg.DistJoin
		if movement == "" {
			movement = "auto"
		}
		p.Steps = append(p.Steps, fmt.Sprintf("hash join #%d on %s (build=%s, movement=%s)",
			ji, j.On.Render(), map[bool]string{true: leg.alias, false: "left"}[jp.swapped], movement))
	}

	var resRanges []relational.ColRange
	var resPred relational.Predicate
	if len(residual) > 0 {
		resRanges, resPred, err = lowerBatchFilter(curScope, joinConjuncts(residual))
		if err != nil {
			return nil, err
		}
		p.Steps = append(p.Steps, "filter: "+joinConjuncts(residual).Render())
	}

	var combined relational.Schema
	for _, leg := range legs {
		combined = append(combined, leg.schema...)
	}

	dx := &distExec{
		cluster: cluster, fabric: fabric, cancel: pl.cancel,
		workers: workers, distJoin: pl.cfg.DistJoin,
		class: pl.class, weight: pl.weight,
		chunkRows: pl.cfg.PipelineChunkRows,
		lcm:       pl.eng.Lifecycle(),
	}
	if dx.chunkRows > 0 {
		p.Steps = append(p.Steps, fmt.Sprintf("pipeline: chunked movement (%d rows/chunk, eager sub-rounds; gather weight x%d)",
			dx.chunkRows, dist.GatherWeightBoost))
	}
	// Heterogeneous placement: the query placer forks once per shard, so
	// each simulated worker host places its fragment morsels
	// independently (own FPGA configuration state) while charging the
	// one query-level Result.Devices aggregate.
	placer, err := pl.heteroPlacer()
	if err != nil {
		return nil, err
	}
	if placer != nil {
		p.placer = placer
		dx.place = make([]*exec.Placer, shards)
		for i := range dx.place {
			dx.place[i] = placer.Fork()
		}
		p.Steps = append(p.Steps, fmt.Sprintf("hetero: %s (independent per-shard placement)", placer))
	}
	// Out-of-core budgeting: the query budget forks once per shard, so
	// each simulated worker host spills against its own host memory
	// while the query reports one spill total (Result.Spill) and one
	// SpillSeconds line in its network stats.
	budget, err := pl.spillBudget()
	if err != nil {
		return nil, err
	}
	if budget != nil {
		p.budget, dx.budget = budget, budget
		dx.shardBudget = make([]*relational.MemoryBudget, shards)
		for i := range dx.shardBudget {
			dx.shardBudget[i] = budget.Fork()
		}
		p.Steps = append(p.Steps, fmt.Sprintf("spill: %s (independent per-shard budgets)", budget))
	}
	// runJoins executes the shared front of the query: leg fragments,
	// join movements, residual filter.
	runJoins := func(qr *dist.QueryRun) (*distStream, error) {
		st := legPlans[0].stream(dx)
		for ji, jp := range joinPlans {
			var err error
			st, err = dx.joinStage(qr, st, legPlans[jp.rightIdx].stream(dx), jp, ji)
			if err != nil {
				return nil, err
			}
		}
		if resRanges != nil || resPred != nil {
			st.decor = append(st.decor, filterDecor(resRanges, resPred,
				dx.dispatchers(exec.Dispatch{Kind: exec.FilterWork, ExpectedRows: dx.shardRowHint})))
		}
		return st, nil
	}

	if stmt.HasAggregates() {
		return pl.planDistAggregate(stmt, p, curScope, combined, dx, runJoins)
	}
	if stmt.Having != nil {
		return nil, fmt.Errorf("sql: HAVING requires aggregation")
	}
	return pl.planDistSimple(stmt, p, curScope, combined, dx, runJoins)
}

// planDistAggregate splits the aggregate: per-shard partials over the
// pre-projection (pushed below the gather), a partial-state gather, and
// the coordinator's first-seen merge feeding the single-node post-plan
// (HAVING / ORDER BY / projection / LIMIT).
func (pl *planner) planDistAggregate(stmt *SelectStmt, p *Planned, sc *scope, combined relational.Schema,
	dx *distExec, runJoins func(*dist.QueryRun) (*distStream, error)) (*Planned, error) {
	if stmt.Star {
		return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
	}
	ap, err := buildAggPlan(stmt, sc, combined)
	if err != nil {
		return nil, err
	}
	aggOutSchema, err := relational.AggOutputSchema(ap.preSchema, ap.groupCols, ap.aggSpecs)
	if err != nil {
		return nil, err
	}
	p.Steps = append(p.Steps, fmt.Sprintf("partial aggregate per shard (%d group cols, %d aggregates)", len(ap.groupCols), len(ap.aggSpecs)))
	p.Steps = append(p.Steps, "gather partials to coordinator; merge in first-seen order")

	// Dry-run the coordinator plan: surfaces compile errors at plan time
	// and yields the output schema and the coordinator's step lines.
	dry := &Planned{TaggedOps: map[string]relational.Op{}}
	dryLw, dryLeaf := dx.coordinator(relational.NewRelation("agg", aggOutSchema), len(stmt.OrderBy) > 0)
	dry, err = pl.finishAggregate(stmt, dry, dryLw, dryLeaf, ap)
	if err != nil {
		return nil, err
	}
	for _, s := range dry.Steps {
		p.Steps = append(p.Steps, "coordinator "+s)
	}

	run := func() (*relational.Relation, *dist.QueryStats, error) {
		qr := dx.newQuery()
		// Close on every path: a run that errors out mid-phase must still
		// deregister from the shared fabric, or concurrent queries would
		// wait for it at the admission barrier forever.
		defer qr.Close()
		dx.attachGuard(qr)
		st, err := runJoins(qr)
		if err != nil {
			return nil, nil, err
		}
		st.decor = append(st.decor, exprProjDecor(withSeq(ap.preSchema), ap.pre, len(st.schema),
			dx.dispatchers(exec.Dispatch{Kind: exec.ProjectWork, ExpectedRows: dx.shardRowHint, Width: countComputed(ap.pre)})))
		frags, err := st.fragments()
		if err != nil {
			return nil, nil, err
		}
		partials, err := dist.RunPartialAggs(frags, ap.groupCols, ap.aggSpecs, len(ap.preSchema), dx.workers,
			dx.dispatchers(exec.Dispatch{Kind: exec.AggWork, ExpectedRows: dx.shardRowHint}), dx.shardBudget)
		if err != nil {
			return nil, nil, err
		}
		var merged *relational.PartialAgg
		if dx.chunkRows > 0 {
			// Pipelined gather: each shard's partial splits into
			// generations of at most chunkRows groups, shipped as chunks;
			// per-shard accumulators fold generation k while generation
			// k+1 is in flight, reconstructing each shard's partial
			// exactly (same group states, same first-seen order), so the
			// final shard-order fold is bit-identical to the bulk merge.
			subs := make([][]*relational.PartialAgg, len(partials))
			for i, pa := range partials {
				subs[i] = pa.SplitChunks(dx.chunkRows)
			}
			acc := make([]*relational.PartialAgg, len(partials))
			for i := range acc {
				acc[i] = relational.NewPartialAgg(ap.groupCols, ap.aggSpecs)
			}
			consume := func(k int) error {
				for i := range subs {
					if k < len(subs[i]) {
						acc[i].MergeFrom(subs[i][k])
					}
				}
				return nil
			}
			chunks := dist.PartialGatherChunks(subs)
			if err := dx.runPipelined(qr, "gather", chunks, dist.GatherClass, dist.GatherWeightBoost, consume); err != nil {
				return nil, nil, err
			}
			merged = acc[0]
			for _, pa := range acc[1:] {
				merged.MergeFrom(pa)
			}
		} else {
			bytes := make([]float64, len(partials))
			for i, pa := range partials {
				bytes[i] = pa.EncodedBytes()
			}
			if err := dx.runPhase(qr, "gather", dist.GatherTransfers(bytes), dist.GatherClass, dist.GatherWeightBoost); err != nil {
				return nil, nil, err
			}
			merged = partials[0]
			for _, pa := range partials[1:] {
				merged.MergeFrom(pa)
			}
		}
		aggRel := relational.NewRelation("agg", aggOutSchema)
		aggRel.Rows = merged.EmitRows(aggOutSchema, true)
		fin := &Planned{TaggedOps: map[string]relational.Op{}}
		// The coordinator's post-plan (HAVING/sort/project/limit) charges
		// the query-level budget: coordinator memory is host memory too.
		lw, leaf := dx.coordinator(aggRel, len(stmt.OrderBy) > 0)
		fin, err = pl.finishAggregate(stmt, fin, lw, leaf, ap)
		if err != nil {
			return nil, nil, err
		}
		res, err := relational.Collect(fin.Root, "result")
		if err != nil {
			return nil, nil, err
		}
		return res, dx.finishStats(qr), nil
	}
	root := &distRoot{schema: dry.Root.Schema(), run: run}
	p.dist, p.Root = root, root
	return p, nil
}

// planDistSimple handles non-aggregate queries: the final projection (and
// any ORDER BY key columns) computes per shard below the gather; the
// coordinator merges by seq — exactly the serial row order — then sorts,
// strips keys and applies LIMIT. Without ORDER BY each shard also caps
// its stream at LIMIT locally.
func (pl *planner) planDistSimple(stmt *SelectStmt, p *Planned, sc *scope, combined relational.Schema,
	dx *distExec, runJoins func(*dist.QueryRun) (*distStream, error)) (*Planned, error) {
	items := stmt.Items
	if stmt.Star {
		items = starItems(stmt, sc)
	}
	itemSchema, itemExprs, err := compileItems(items, sc, combined)
	if err != nil {
		return nil, err
	}
	keyCols, keyExprs, descs, err := compileOrderKeys(stmt.OrderBy, items, sc, combined)
	if err != nil {
		return nil, err
	}
	wideSchema := append(append(relational.Schema{}, itemSchema...), keyCols...)
	wideExprs := append(append([]relational.ProjExpr{}, itemExprs...), keyExprs...)

	// The coordinator's strip projection only drops the key columns, so
	// ORDER BY + LIMIT there is one top-k wherever the engine allows it.
	topK := stmt.Limit >= 0 && dx.batchCoordinator(len(keyCols) > 0)
	p.Steps = append(p.Steps, "project "+itemNames(items)+" per shard")
	switch {
	case topK:
		p.Steps = append(p.Steps, fmt.Sprintf("gather to coordinator (seq-ordered merge); top-k %d", stmt.Limit))
	case len(keyCols) > 0:
		p.Steps = append(p.Steps, "gather to coordinator (seq-ordered merge); sort")
	default:
		p.Steps = append(p.Steps, "gather to coordinator (seq-ordered merge)")
	}
	if stmt.Limit >= 0 && !topK {
		p.Steps = append(p.Steps, fmt.Sprintf("limit %d", stmt.Limit))
	}

	run := func() (*relational.Relation, *dist.QueryStats, error) {
		qr := dx.newQuery()
		defer qr.Close() // deregister from the shared fabric on error paths
		dx.attachGuard(qr)
		st, err := runJoins(qr)
		if err != nil {
			return nil, nil, err
		}
		st.decor = append(st.decor, exprProjDecor(withSeq(wideSchema), wideExprs, len(st.schema),
			dx.dispatchers(exec.Dispatch{Kind: exec.ProjectWork, ExpectedRows: dx.shardRowHint, Width: countComputed(wideExprs)})))
		st.schema = wideSchema
		if len(keyCols) == 0 && stmt.Limit >= 0 {
			st.decor = append(st.decor, limitDecor(stmt.Limit))
		}
		if err := st.materialize(dx.workers); err != nil {
			return nil, nil, err
		}
		seqCol := len(wideSchema)
		var merged *relational.Relation
		if dx.chunkRows > 0 {
			// Pipelined gather: the coordinator's seq merge advances to
			// each chunk's global row bound while the next chunk's flows
			// drain, reproducing MergeBySeq's row order incrementally.
			chunks, bounds := dist.GatherChunks(st.base, seqCol, dx.chunkRows)
			merged = relational.NewRelation("gathered", st.base[0].Schema[:seqCol])
			merger := dist.NewSeqMerger(st.base, seqCol)
			consume := func(k int) error {
				merger.Take(bounds[k], func(shard, row int) {
					merged.Rows = append(merged.Rows, st.base[shard].Rows[row][:seqCol])
				})
				return nil
			}
			if err := dx.runPipelined(qr, "gather", chunks, dist.GatherClass, dist.GatherWeightBoost, consume); err != nil {
				return nil, nil, err
			}
		} else {
			if err := dx.runPhase(qr, "gather", dist.GatherTransfers(st.bytes()), dist.GatherClass, dist.GatherWeightBoost); err != nil {
				return nil, nil, err
			}
			merged = dist.MergeBySeq("gathered", st.base, seqCol, true)
		}
		lw, cur := dx.coordinator(merged, len(keyCols) > 0)
		limit := stmt.Limit
		if len(keyCols) > 0 {
			keys := make([]relational.SortKey, len(keyCols))
			for ki := range keyCols {
				keys[ki] = relational.SortKey{Col: len(itemSchema) + ki, Desc: descs[ki]}
			}
			k := -1
			if topK {
				k, limit = limit, -1
			}
			if cur, err = lw.sort(cur, keys, k); err != nil {
				return nil, nil, err
			}
			// Strip the key columns again.
			if cur, err = lw.project(cur, itemSchema, pickExprs(identityPicks(len(itemSchema)))); err != nil {
				return nil, nil, err
			}
		}
		if limit >= 0 {
			cur = lw.limit(cur, limit)
		}
		op := lw.finish(cur)
		res, err := relational.Collect(op, "result")
		if err != nil {
			return nil, nil, err
		}
		return res, dx.finishStats(qr), nil
	}
	root := &distRoot{schema: itemSchema, run: run}
	p.dist, p.Root = root, root
	return p, nil
}
