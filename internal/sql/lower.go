package sql

// One logical plan, one lowerer, two executions, one way to run a tree.
// The planner decides a statement once (plan.go: legs, pruning, pushdown,
// join order and build side, size estimates) and this file is the only
// place that turns those decisions into relational operators and wires
// them to a device placer and a memory budget. The single-node execution
// lowers the plan with one lowerer into one tree; the distributed
// execution (distributed.go) holds one lowerer per shard — that shard's
// placer fork, budget fork and the query's cancel token — builds every
// shard fragment with it, inserts the data movements between fragments,
// and lowers the coordinator's post-gather plan with one more batch
// lowerer carrying the query budget. Every batch tree — a shard fragment,
// the coordinator's plan, a single-node plan — runs the same way: drained
// through the morsel dispatcher into a column-built relation
// (relational.Drain; lowerer.drain for the tree that yields the result).
// Cancellation rides on the leaves: every scan is guarded by the query's
// token, so no root-level check is needed. The row engine is the same
// lowerer with the batch side switched off, reachable from exactly one
// place — planLocal under Parallel=false — where drain collects rows
// instead; it is kept as the oracle the batch and distributed executions
// are checked against.

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/relational"
)

// lowerer builds the executable operator tree for a plan, targeting
// either the volcano row engine or the morsel-parallel batch engine.
// Every constructor mirrors one relational operator; execNode carries
// whichever representation is active.
type lowerer struct {
	parallel bool
	workers  int
	// cancel, when set, guards every leaf scan: each pulled row or batch
	// — on every Exchange worker, since the guard partitions through —
	// checks the token, so external cancellation aborts even queries deep
	// inside a pipeline breaker's drain within one batch boundary.
	cancel *relational.CancelToken
	// placer, when set, places every batch operator's morsels on its
	// heterogeneous devices; hintRows is the planner's running
	// cardinality estimate, which amortizes one-off device setup over
	// the expected morsel count of each operator it lowers.
	placer   *exec.Placer
	hintRows int
	// budget, when set, charges every batch pipeline breaker's
	// materialized state (join build tables, aggregate hash maps, sort
	// runs) against the query memory budget and prices overflow on the
	// budget's spill tier. The row engine, the oracle, meters nothing:
	// its lowerer never carries a budget.
	budget *relational.MemoryBudget
}

// execNode is one lowered operator: exactly one side is set.
type execNode struct {
	row relational.Op
	bat relational.BatchOp
}

// op is the node's operator, for stats tagging.
func (n execNode) op() OpStatser {
	if n.bat != nil {
		return n.bat
	}
	return n.row
}

func (lw *lowerer) scan(rel *relational.Relation) execNode {
	if lw.parallel {
		return execNode{bat: relational.GuardBatch(relational.NewBatchScan(rel), lw.cancel)}
	}
	return execNode{row: relational.Guard(relational.NewScan(rel), lw.cancel)}
}

// planFilter is a boolean expression compiled at plan time in both
// forms: pred, the row closure the row engine (the oracle) tests, and
// prog, the typed program the batch engine runs.
type planFilter struct {
	expr Expr
	pred relational.Predicate
	prog relational.VecPred
}

// compileFilter compiles e over sc (no expression, no filter).
func compileFilter(sc *scope, e Expr) (*planFilter, error) {
	if e == nil {
		return nil, nil
	}
	c, err := sc.compile(e)
	if err != nil {
		return nil, err
	}
	if c.typ != tBool {
		return nil, fmt.Errorf("sql: filter requires a boolean, got %s (%s)", c.typ, e.Render())
	}
	return &planFilter{expr: e, prog: c.pred, pred: func(r relational.Row) (bool, error) {
		v, err := c.eval(r)
		return err == nil && v.I != 0, err
	}}, nil
}

// filter applies a compiled filter (nil: nothing to apply). The
// distributed execution applies the same compiled filter on every shard.
func (lw *lowerer) filter(n execNode, f *planFilter) execNode {
	switch {
	case f == nil:
		return n
	case n.bat == nil:
		return execNode{row: relational.NewFilter(n.row, f.pred)}
	}
	bf := relational.NewBatchFilter(n.bat, nil, f.prog)
	bf.Place(lw.placer.Dispatcher(exec.FilterWork, lw.hintRows, 0))
	return execNode{bat: bf}
}

// project lowers a projection. Every column of pe carries its row
// closure; Col >= 0 marks a pass-through of that child column, which the
// batch engine serves by sharing the column vector, and Prog is the typed
// program of a computed one.
func (lw *lowerer) project(n execNode, schema relational.Schema, pe []relational.ProjExpr) (execNode, error) {
	if n.bat != nil {
		op, err := relational.NewBatchProject(n.bat, schema, pe)
		if err != nil {
			return execNode{}, err
		}
		// Pure pass-through projections share vectors for free; only
		// computed expressions are a placeable kernel.
		if w := op.ExprCount(); w > 0 {
			op.Place(lw.placer.Dispatcher(exec.ProjectWork, lw.hintRows, w))
		}
		return execNode{bat: op}, nil
	}
	op, err := relational.NewProject(n.row, schema, projFns(pe))
	if err != nil {
		return execNode{}, err
	}
	return execNode{row: op}, nil
}

// projFns extracts the row closures of a projection list.
func projFns(pe []relational.ProjExpr) []relational.Projector {
	fns := make([]relational.Projector, len(pe))
	for i := range pe {
		fns[i] = pe[i].Fn
	}
	return fns
}

// hashJoin is the single-node join: the operator drains its own build
// side. A distributed join probes a table its movement already filled
// (hashJoinPrebuilt).
func (lw *lowerer) hashJoin(build, probe execNode, buildCol, probeCol int) (execNode, error) {
	if build.bat != nil {
		op, err := relational.NewBatchHashJoin(build.bat, probe.bat, buildCol, probeCol, lw.workers)
		if err != nil {
			return execNode{}, err
		}
		op.SetBudget(lw.budget)
		return execNode{bat: op}, nil
	}
	op, err := relational.NewHashJoin(build.row, probe.row, buildCol, probeCol)
	if err != nil {
		return execNode{}, err
	}
	return execNode{row: op}, nil
}

// hashJoinPrebuilt is the distributed join: it probes a hash table built
// from the join's moved build side, taken whole (distExec.joinStage), and
// reserves the table's bytes against the shard's budget as a join that
// built it would.
func (lw *lowerer) hashJoinPrebuilt(pre *relational.HashBuild, probe execNode, probeCol int) (execNode, error) {
	op, err := relational.NewBatchHashJoinPrebuilt(pre, probe.bat, probeCol, lw.workers)
	if err != nil {
		return execNode{}, err
	}
	op.SetBudget(lw.budget)
	return execNode{bat: op}, nil
}

func (lw *lowerer) groupAgg(n execNode, groupCols []int, aggs []relational.AggSpec) (execNode, error) {
	if n.bat != nil {
		op, err := relational.NewBatchGroupAgg(n.bat, groupCols, aggs, lw.workers)
		if err != nil {
			return execNode{}, err
		}
		op.Place(lw.placer.Dispatcher(exec.AggWork, lw.hintRows, 0))
		op.SetBudget(lw.budget)
		return execNode{bat: op}, nil
	}
	op, err := relational.NewGroupAgg(n.row, groupCols, aggs)
	if err != nil {
		return execNode{}, err
	}
	return execNode{row: op}, nil
}

// sort lowers ORDER BY keys; topK >= 0 keeps only the first topK rows of
// the order (batch engine only, see canTopK).
func (lw *lowerer) sort(n execNode, keys []relational.SortKey, topK int) (execNode, error) {
	if n.bat != nil {
		var op *relational.BatchSort
		var err error
		if topK >= 0 {
			op, err = relational.NewBatchTopK(n.bat, keys, topK, lw.workers)
		} else {
			op, err = relational.NewBatchSort(n.bat, keys, lw.workers)
		}
		if err != nil {
			return execNode{}, err
		}
		op.Place(lw.placer.Dispatcher(exec.SortWork, lw.hintRows, len(keys)))
		op.SetBudget(lw.budget)
		return execNode{bat: op}, nil
	}
	op, err := relational.NewSort(n.row, keys)
	if err != nil {
		return execNode{}, err
	}
	return execNode{row: op}, nil
}

// shardTopK keeps the k best rows of a shard stream by keys, still in
// arrival (#seq) order — the cut a shard applies below a gather whose
// coordinator takes the top k of the merged streams. Batch engine only:
// shard fragments always are.
func (lw *lowerer) shardTopK(n execNode, keys []relational.SortKey, k int) (execNode, error) {
	op, err := relational.NewBatchTopKUnsorted(n.bat, keys, k, lw.workers)
	if err != nil {
		return execNode{}, err
	}
	op.Place(lw.placer.Dispatcher(exec.SortWork, lw.hintRows, len(keys)))
	op.SetBudget(lw.budget)
	return execNode{bat: op}, nil
}

func (lw *lowerer) limit(n execNode, k int) execNode {
	if n.bat != nil {
		// No Exchange here: a serial drain of the batch stream is already
		// in Seq (= serial) order, and consuming it directly preserves the
		// early exit — LIMIT k stops the scan after ~k rows instead of
		// materializing the whole input through the dispatcher.
		return execNode{bat: relational.NewBatchLimit(n.bat, k)}
	}
	return execNode{row: relational.NewLimit(n.row, k)}
}

// drain runs a lowered tree to its end and returns the result. A batch
// tree fans out through the morsel dispatcher into a column-built relation
// (relational.Drain, as every fragment does); the row engine — the oracle
// — collects rows.
func (lw *lowerer) drain(n execNode) (*relational.Relation, error) {
	if n.bat != nil {
		return relational.Drain(n.bat, lw.workers, "result")
	}
	return relational.Collect(n.row, "result")
}

// passthroughIdx returns the child column index that expression e reads
// unchanged (a resolved column reference, or a bound pre-computed
// expression), or -1. The type must match so the batch engine can share
// the column vector.
func passthroughIdx(sc *scope, e Expr, child relational.Schema) int {
	if sc.exprBind != nil {
		if b, ok := sc.exprBind[e.Render()]; ok {
			if b.index < len(child) && child[b.index].Type == toRelType(b.typ) {
				return b.index
			}
			return -1
		}
	}
	if cr, ok := e.(*ColRef); ok {
		if ent, err := sc.resolve(cr); err == nil {
			if ent.index < len(child) && child[ent.index].Type == toRelType(ent.typ) {
				return ent.index
			}
		}
	}
	return -1
}
