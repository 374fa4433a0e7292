package relational

import (
	"fmt"
	"slices"

	"repro/internal/exec"
)

// BatchFilter passes the rows its predicate program selects.
type BatchFilter struct {
	child BatchOp
	pred  VecPred // nil passes every row
	stat  *opCount
	disp  *exec.Dispatcher
	// ctx is this stream's scratch, reused batch after batch: the passing
	// rows leave in a Sel of their own before the next refill.
	ctx exprCtx
}

// NewBatchFilter returns a filter over child passing the rows that satisfy
// every range and pred (nil: no further test). The ranges are Int-range
// programs ANDed ahead of pred.
func NewBatchFilter(child BatchOp, ranges []ColRange, pred VecPred) *BatchFilter {
	ps := make([]VecPred, 0, len(ranges)+1)
	for _, r := range ranges {
		ps = append(ps, r)
	}
	if pred != nil {
		ps = append(ps, pred)
	}
	f := &BatchFilter{child: child, stat: &opCount{}}
	if len(ps) > 0 {
		f.pred = And(ps...)
	}
	return f
}

// Schema implements BatchOp.
func (f *BatchFilter) Schema() Schema { return f.child.Schema() }

// Place routes the filter's morsels through a heterogeneous device
// dispatcher (nil keeps the homogeneous engine). The dispatcher is
// shared by every partition, so its selectivity feedback and modeled
// costs aggregate across the whole operator.
func (f *BatchFilter) Place(d *exec.Dispatcher) { f.disp = d }

// NextBatch implements BatchOp.
func (f *BatchFilter) NextBatch() (*Batch, error) {
	for {
		b, err := f.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		// The selection is the filter kernel: one dispatched morsel, whose
		// observed keep fraction feeds the placement cost model. The
		// reference implementation always executes — devices model cost,
		// not semantics. No row is copied: the passing rows narrow the
		// batch's selection over the same vectors.
		var out *Batch
		work := func() (int, error) {
			if f.pred == nil {
				out = b
				return b.Len(), nil
			}
			var in []int32
			if b.Sel != nil {
				in = f.ctx.copySel(b.Sel)
			}
			sel, fail := f.pred.narrow(&f.ctx, b, in)
			defer f.ctx.putSel(sel)
			switch {
			case fail.err != nil:
				return 0, fail.err
			case len(sel) == 0:
				return 0, nil
			case len(sel) == b.Len():
				out = b // every row passed: the batch as it came
			default:
				out = &Batch{Schema: b.Schema, Cols: b.Cols, Seq: b.Seq, Sel: slices.Clone(sel), n: b.n}
			}
			return out.Len(), nil
		}
		if err := f.disp.RunFilter(b.Len(), work); err != nil {
			return nil, err
		}
		if out == nil {
			continue
		}
		f.stat.add(out.Len())
		return out, nil
	}
}

// Stats implements BatchOp.
func (f *BatchFilter) Stats() OpStats { return opStats(f.stat, f.disp, nil) }

// Partition implements Partitioner: the filter is stateless, so each
// child partition gets its own clone sharing the counter (and the
// device dispatcher, whose feedback loop spans all partitions).
func (f *BatchFilter) Partition(n int) []BatchOp {
	p, ok := f.child.(Partitioner)
	if !ok {
		return nil
	}
	parts := p.Partition(n)
	out := make([]BatchOp, len(parts))
	for i, cp := range parts {
		out[i] = &BatchFilter{child: cp, pred: f.pred, stat: f.stat, disp: f.disp}
	}
	return out
}

// opStats merges an operator's row counter with its dispatcher's
// modeled-cost snapshot and its spill meter's report (nil: none).
func opStats(stat *opCount, disp *exec.Dispatcher, meter *spillMeter) OpStats {
	st := stat.stats()
	if disp != nil {
		c := disp.Cost()
		st.Hetero = &c
	}
	st.Spill = meter.opSpill()
	return st
}

// ProjExpr is one output column of a projection: a pass-through of child
// column Col (vector shared, no per-row work) or a computed expression.
// Prog is the expression's typed program, which the batch engine runs; Fn
// is its row closure, which the row engine runs. A batch projection given
// only Fn boxes each row for it (see Expr).
type ProjExpr struct {
	Col  int // >= 0: pass child column through
	Fn   Projector
	Prog VecExpr
}

// Pick returns the pass-through projection of column idx.
func Pick(idx int) ProjExpr { return ProjExpr{Col: idx} }

// Expr returns a projection computed by a row closure alone. The batch
// engine boxes every row for it; the SQL planner compiles a program
// instead, and only hand-built operator trees use this form.
func Expr(fn Projector) ProjExpr { return ProjExpr{Col: -1, Fn: fn} }

// BatchProject computes derived columns batch-at-a-time.
type BatchProject struct {
	child  BatchOp
	schema Schema
	exprs  []ProjExpr
	stat   *opCount
	disp   *exec.Dispatcher
	ctx    exprCtx // this stream's scratch for intermediate columns
}

// NewBatchProject returns a projection producing schema via exprs.
func NewBatchProject(child BatchOp, schema Schema, exprs []ProjExpr) (*BatchProject, error) {
	if len(schema) != len(exprs) {
		return nil, fmt.Errorf("relational: batch project: %d columns but %d expressions", len(schema), len(exprs))
	}
	for i, e := range exprs {
		if e.Col < 0 && e.Prog != nil && e.Prog.Type() != schema[i].Type {
			return nil, fmt.Errorf("relational: batch project: column %q is %v but its program computes %v", schema[i].Name, schema[i].Type, e.Prog.Type())
		}
	}
	return &BatchProject{child: child, schema: schema, exprs: exprs, stat: &opCount{}}, nil
}

// Schema implements BatchOp.
func (p *BatchProject) Schema() Schema { return p.schema }

// Place routes the projection's computed-expression morsels through a
// heterogeneous device dispatcher (nil keeps the homogeneous engine).
// Pure pass-through projections do no per-row work and should not be
// placed.
func (p *BatchProject) Place(d *exec.Dispatcher) { p.disp = d }

// ExprCount returns the number of computed (non-pass-through) output
// columns — the width of the projection kernel a placer prices.
func (p *BatchProject) ExprCount() int {
	n := 0
	for _, e := range p.exprs {
		if e.Col < 0 {
			n++
		}
	}
	return n
}

// NextBatch implements BatchOp.
func (p *BatchProject) NextBatch() (*Batch, error) {
	b, err := p.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	return p.apply(b)
}

// apply projects one batch of the child's: one dispatched morsel.
func (p *BatchProject) apply(b *Batch) (*Batch, error) {
	n := b.Len()
	out := &Batch{Schema: p.schema, Cols: make([]Vector, len(p.exprs)), Seq: b.Seq, Sel: b.Sel, n: b.n}
	work := func() error {
		// Every computed column runs over the batch's vectors, selected
		// rows or not, and only the selected rows' failures count. The
		// failures merge in column order: the row closures fail on the
		// first failing row and, in it, the first failing column.
		var fail rowFail
		for i, e := range p.exprs {
			var f rowFail
			switch {
			case e.Col >= 0:
				out.Cols[i] = b.Cols[e.Col]
			case e.Prog != nil:
				// An owned result is scratch the projection keeps as its
				// output; a shared one is an immutable input column.
				out.Cols[i], f = e.Prog.eval(&p.ctx, b, b.Sel)
			default:
				out.Cols[i], f = boxColumn(b, e.Fn, p.schema[i].Type)
			}
			fail = fail.then(f)
		}
		return fail.err
	}
	if err := p.disp.Run(n, work); err != nil {
		return nil, err
	}
	p.stat.add(n)
	return out, nil
}

// recycle hands the computed columns of one of p's outputs, read to the
// end and shared with nothing, back to p's scratch for its next batch.
func (p *BatchProject) recycle(cols []Vector) {
	for i, e := range p.exprs {
		if e.Col < 0 && e.Prog != nil && e.Prog.owned() {
			p.ctx.release(cols[i])
		}
	}
}

// boxColumn computes a column of type t over a batch by running fn on
// each boxed row, up to the first row it fails on: the batch engine's
// form of a projection given only its row closure (Expr). A selected
// batch's column keeps its vectors' layout: a rejected row is the zero
// value, and fn does not run on it.
func boxColumn(b *Batch, fn Projector, t Type) (Vector, rowFail) {
	out := NewVector(t, b.n)
	var buf Row
	next := 0 // the selected row fn runs on next
	for r := 0; r < b.n; r++ {
		if b.Sel != nil && (next == len(b.Sel) || int(b.Sel[next]) != r) {
			out.Append(Value{T: t})
			continue
		}
		next++
		buf = b.row(r, buf)
		v, err := fn(buf)
		if err != nil {
			return out, rowFail{row: r, err: err}
		}
		out.Append(v)
	}
	return out, rowFail{}
}

// Stats implements BatchOp.
func (p *BatchProject) Stats() OpStats { return opStats(p.stat, p.disp, nil) }

// Partition implements Partitioner.
func (p *BatchProject) Partition(n int) []BatchOp {
	pr, ok := p.child.(Partitioner)
	if !ok {
		return nil
	}
	parts := pr.Partition(n)
	out := make([]BatchOp, len(parts))
	for i, cp := range parts {
		out[i] = &BatchProject{child: cp, schema: p.schema, exprs: p.exprs, stat: p.stat, disp: p.disp}
	}
	return out
}

// BatchLimit passes at most n rows. It consumes its child serially —
// batch streams arrive in Seq (= serial) order — and stops pulling once
// the limit is reached, so LIMIT k touches only ~k rows of input.
type BatchLimit struct {
	child BatchOp
	n     int
	stat  *opCount
}

// NewBatchLimit returns a limit of n rows (n < 0 means unlimited).
func NewBatchLimit(child BatchOp, n int) *BatchLimit {
	return &BatchLimit{child: child, n: n, stat: &opCount{}}
}

// Schema implements BatchOp.
func (l *BatchLimit) Schema() Schema { return l.child.Schema() }

// NextBatch implements BatchOp.
func (l *BatchLimit) NextBatch() (*Batch, error) {
	if l.n >= 0 && l.stat.stats().RowsOut >= l.n {
		return nil, nil
	}
	b, err := l.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if l.n >= 0 {
		remaining := l.n - l.stat.stats().RowsOut
		if b.Len() > remaining {
			b = b.window(0, remaining)
		}
	}
	l.stat.add(b.Len())
	return b, nil
}

// Stats implements BatchOp.
func (l *BatchLimit) Stats() OpStats { return l.stat.stats() }
