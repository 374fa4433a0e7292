package sql

import (
	"math"

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
	// placer, when set, routes every batch operator's morsels through
	// the heterogeneous placement policy; hintRows is the planner's
	// running cardinality estimate, which amortizes one-off device setup
	// over the expected morsel count of each operator it lowers.
	placer   *exec.Placer
	hintRows int
	// budget, when set, charges every pipeline breaker's materialized
	// state (join build tables, aggregate hash maps, sort runs) against
	// the query memory budget; overflow goes out-of-core against the
	// budget's spill tier. Applies on both engines — the row operators
	// account their state against the same budget the batch operators
	// grace-partition under.
	budget *relational.MemoryBudget
}

// execNode is one lowered operator: exactly one side is set.
type execNode struct {
	row relational.Op
	bat relational.BatchOp
}

func (lw *lowerer) scan(rel *relational.Relation) execNode {
	if lw.parallel {
		return execNode{bat: relational.GuardBatch(relational.NewBatchScan(rel), lw.cancel)}
	}
	return execNode{row: relational.Guard(relational.NewScan(rel), lw.cancel)}
}

// filter lowers a boolean expression over sc. In batch mode, conjuncts of
// the form <Int column> <cmp> <int literal> peel off into ColRanges
// served by the filter kernels; the rest compiles to a row predicate.
func (lw *lowerer) filter(n execNode, sc *scope, e Expr) (execNode, error) {
	if n.bat == nil {
		pred, err := compilePredicate(sc, e)
		if err != nil {
			return execNode{}, err
		}
		return execNode{row: relational.NewFilter(n.row, pred)}, nil
	}
	ranges, pred, err := lowerBatchFilter(sc, e)
	if err != nil {
		return execNode{}, err
	}
	bf := relational.NewBatchFilter(n.bat, ranges, pred)
	if lw.placer != nil {
		bf.Place(lw.placer.Dispatcher(exec.Dispatch{Kind: exec.FilterWork, ExpectedRows: lw.hintRows}))
	}
	return execNode{bat: bf}, nil
}

// lowerBatchFilter splits a boolean expression into kernel-served column
// ranges and a residual compiled predicate. The single-node batch lowerer
// and the distributed fragment builder share it, so filters lower onto
// the scan kernels identically on both paths.
func lowerBatchFilter(sc *scope, e Expr) ([]relational.ColRange, relational.Predicate, error) {
	var ranges []relational.ColRange
	var rest []Expr
	for _, c := range splitConjuncts(e) {
		if r, ok := rangeFromConjunct(sc, c); ok {
			ranges = append(ranges, r)
		} else {
			rest = append(rest, c)
		}
	}
	var pred relational.Predicate
	if len(rest) > 0 {
		var err error
		pred, err = compilePredicate(sc, joinConjuncts(rest))
		if err != nil {
			return nil, nil, err
		}
	}
	return ranges, pred, nil
}

// project lowers a projection. Every column of pe carries its row
// closure; Col >= 0 marks a pass-through of that child column, which the
// batch engine serves by sharing the column vector, and Vec is the typed
// batch form of a computed expression where one exists.
func (lw *lowerer) project(n execNode, schema relational.Schema, pe []relational.ProjExpr) (execNode, error) {
	if n.bat != nil {
		op, err := relational.NewBatchProject(n.bat, schema, pe)
		if err != nil {
			return execNode{}, err
		}
		// Pure pass-through projections share vectors for free; only
		// computed expressions are a placeable kernel.
		if lw.placer != nil && op.ExprCount() > 0 {
			op.Place(lw.placer.Dispatcher(exec.Dispatch{
				Kind: exec.ProjectWork, ExpectedRows: lw.hintRows, Width: op.ExprCount(),
			}))
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

func (lw *lowerer) hashJoin(build, probe execNode, buildCol, probeCol int) (execNode, error) {
	if build.bat != nil {
		op, err := relational.NewBatchHashJoin(build.bat, probe.bat, buildCol, probeCol, lw.workers)
		if err != nil {
			return execNode{}, err
		}
		if lw.budget != nil {
			op.SetBudget(lw.budget)
		}
		return execNode{bat: op}, nil
	}
	op, err := relational.NewHashJoin(build.row, probe.row, buildCol, probeCol)
	if err != nil {
		return execNode{}, err
	}
	if lw.budget != nil {
		op.SetBudget(lw.budget)
	}
	return execNode{row: op}, nil
}

func (lw *lowerer) groupAgg(n execNode, groupCols []int, aggs []relational.AggSpec) (execNode, error) {
	if n.bat != nil {
		op, err := relational.NewBatchGroupAgg(n.bat, groupCols, aggs, lw.workers)
		if err != nil {
			return execNode{}, err
		}
		if lw.placer != nil {
			op.Place(lw.placer.Dispatcher(exec.Dispatch{Kind: exec.AggWork, ExpectedRows: lw.hintRows}))
		}
		if lw.budget != nil {
			op.SetBudget(lw.budget)
		}
		return execNode{bat: op}, nil
	}
	op, err := relational.NewGroupAgg(n.row, groupCols, aggs)
	if err != nil {
		return execNode{}, err
	}
	if lw.budget != nil {
		op.SetBudget(lw.budget)
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
		if lw.placer != nil {
			op.Place(lw.placer.Dispatcher(exec.Dispatch{
				Kind: exec.SortWork, ExpectedRows: lw.hintRows, Width: len(keys),
			}))
		}
		if lw.budget != nil {
			op.SetBudget(lw.budget)
		}
		return execNode{bat: op}, nil
	}
	op, err := relational.NewSort(n.row, keys)
	if err != nil {
		return execNode{}, err
	}
	if lw.budget != nil {
		op.SetBudget(lw.budget)
	}
	return execNode{row: op}, nil
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

// op exposes a node as a row Op for stats tagging without consuming it.
func (lw *lowerer) op(n execNode) relational.Op {
	if n.bat != nil {
		return relational.RowsOf(n.bat)
	}
	return n.row
}

// finish produces the plan root, fanning a partitionable batch tree out
// through the morsel dispatcher.
func (lw *lowerer) finish(n execNode) relational.Op {
	if n.bat != nil {
		return relational.RowsOf(relational.NewExchange(n.bat, lw.workers))
	}
	return n.row
}

// rangeFromConjunct recognizes <Int column> <cmp> <int literal> (either
// orientation) and converts it to an inclusive ColRange for the batch
// filter kernels. Anything else — including unresolved columns, which
// must surface their error through the generic compile path — reports
// false.
func rangeFromConjunct(sc *scope, e Expr) (relational.ColRange, bool) {
	b, ok := e.(*BinExpr)
	if !ok {
		return relational.ColRange{}, false
	}
	op := b.Op
	var cr *ColRef
	var lit *IntLit
	if c, ok := b.L.(*ColRef); ok {
		if l, ok2 := b.R.(*IntLit); ok2 {
			cr, lit = c, l
		}
	} else if c, ok := b.R.(*ColRef); ok {
		if l, ok2 := b.L.(*IntLit); ok2 {
			cr, lit = c, l
			// 5 < col  ≡  col > 5, etc.
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
	}
	if cr == nil {
		return relational.ColRange{}, false
	}
	ent, err := sc.resolve(cr)
	if err != nil || ent.typ != tInt {
		return relational.ColRange{}, false
	}
	out := relational.ColRange{Col: ent.index}
	switch op {
	case "=":
		out.Lo, out.Hi, out.HasLo, out.HasHi = lit.V, lit.V, true, true
	case "<=":
		out.Hi, out.HasHi = lit.V, true
	case ">=":
		out.Lo, out.HasLo = lit.V, true
	case "<":
		if lit.V == math.MinInt64 {
			out.Lo, out.Hi, out.HasLo, out.HasHi = 1, 0, true, true // empty
		} else {
			out.Hi, out.HasHi = lit.V-1, true
		}
	case ">":
		if lit.V == math.MaxInt64 {
			out.Lo, out.Hi, out.HasLo, out.HasHi = 1, 0, true, true // empty
		} else {
			out.Lo, out.HasLo = lit.V+1, true
		}
	default:
		return relational.ColRange{}, false
	}
	return out, true
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
