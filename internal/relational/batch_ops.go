package relational

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/kernels"
)

// ColRange is a planner-recognized inclusive range predicate lo <= col <=
// hi over an Int column — the shape BatchFilter lowers onto the
// vectorizable kernels.FilterRangeIncl / RefineRangeIncl primitives
// instead of evaluating a compiled expression per row.
type ColRange struct {
	Col    int
	Lo, Hi int64
	HasLo  bool
	HasHi  bool
}

func (cr ColRange) bounds() (lo, hi int64) {
	lo, hi = int64(-1)<<63, int64(^uint64(0)>>1)
	if cr.HasLo {
		lo = cr.Lo
	}
	if cr.HasHi {
		hi = cr.Hi
	}
	return lo, hi
}

// BatchFilter passes rows satisfying every range (kernel fast path) and
// the residual predicate (generic path). Either may be empty/nil.
type BatchFilter struct {
	child  BatchOp
	ranges []ColRange
	pred   Predicate
	stat   *opCount
	disp   *exec.Dispatcher
	// sel is this stream's selection buffer, reused batch after batch:
	// the gather copies the passing rows out before the next refill.
	sel []int32
}

// NewBatchFilter returns a filter over child. ranges are applied first
// via the scan kernels; pred (may be nil) handles whatever the planner
// could not lower to a range.
func NewBatchFilter(child BatchOp, ranges []ColRange, pred Predicate) *BatchFilter {
	return &BatchFilter{child: child, ranges: ranges, pred: pred, stat: &opCount{}}
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
		// The selection + gather is the filter kernel: one dispatched
		// morsel, whose observed keep fraction feeds the placement cost
		// model. The reference implementation always executes — devices
		// model cost, not semantics.
		var out *Batch
		work := func() (int, error) {
			sel, all, err := f.selection(b)
			if err != nil {
				return 0, err
			}
			if all {
				out = b
			} else if len(sel) > 0 {
				out = gatherBatch(b, sel)
			}
			if out == nil {
				return 0, nil
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

// selection computes the passing row indices; all=true short-circuits the
// gather when every row passes.
func (f *BatchFilter) selection(b *Batch) (sel []int32, all bool, err error) {
	for i, cr := range f.ranges {
		lo, hi := cr.bounds()
		col := b.Cols[cr.Col].Ints
		if i == 0 {
			sel = kernels.AppendRangeIncl(f.sel[:0], col, lo, hi)
			f.sel = sel
		} else {
			sel = kernels.RefineRangeIncl(col, sel, lo, hi)
		}
		if len(sel) == 0 {
			return nil, false, nil
		}
	}
	if f.pred == nil {
		// A range that every row passed is a zero-copy pass-through.
		return sel, len(f.ranges) == 0 || len(sel) == b.Len(), nil
	}
	var buf Row
	if sel == nil {
		n := b.Len()
		sel = f.sel[:0]
		for r := 0; r < n; r++ {
			buf = b.Row(r, buf)
			ok, err := f.pred(buf)
			if err != nil {
				return nil, false, err
			}
			if ok {
				sel = append(sel, int32(r))
			}
		}
		f.sel = sel
		return sel, len(sel) == b.Len(), nil
	}
	kept := sel[:0]
	for _, r := range sel {
		buf = b.Row(int(r), buf)
		ok, err := f.pred(buf)
		if err != nil {
			return nil, false, err
		}
		if ok {
			kept = append(kept, r)
		}
	}
	return kept, false, nil
}

// Stats implements BatchOp.
func (f *BatchFilter) Stats() OpStats { return heteroStats(f.stat, f.disp) }

// Partition implements Partitioner: the filter is stateless, so each
// child partition gets its own clone sharing the counter (and the
// device dispatcher, whose feedback loop spans all partitions).
func (f *BatchFilter) Partition(n int, static bool) []BatchOp {
	p, ok := f.child.(Partitioner)
	if !ok {
		return nil
	}
	parts := p.Partition(n, static)
	out := make([]BatchOp, len(parts))
	for i, cp := range parts {
		out[i] = &BatchFilter{child: cp, ranges: f.ranges, pred: f.pred, stat: f.stat, disp: f.disp}
	}
	return out
}

// heteroStats merges an operator's row counter with its dispatcher's
// modeled-cost snapshot.
func heteroStats(stat *opCount, disp *exec.Dispatcher) OpStats {
	st := stat.stats()
	if disp != nil {
		c := disp.Cost()
		st.Hetero = &c
	}
	return st
}

// gatherBatch materializes the selected rows of b.
func gatherBatch(b *Batch, sel []int32) *Batch {
	out := &Batch{Schema: b.Schema, Cols: make([]Vector, len(b.Cols)), Seq: b.Seq, n: len(sel)}
	for c := range b.Cols {
		out.Cols[c] = GatherVector(&b.Cols[c], sel)
	}
	return out
}

// VecProjector computes one output column for a whole batch straight off
// its typed vectors — no Row, no Value.
type VecProjector func(b *Batch) Vector

// ProjExpr is one output column of a batch projection: a pass-through of
// child column Col (vector shared, no per-row work), or a computed
// expression — evaluated over the vectors by Vec when the planner could
// prove the operand types, else per boxed row by Fn.
type ProjExpr struct {
	Col int // >= 0: pass child column through
	Fn  Projector
	Vec VecProjector
}

// Pick returns the pass-through projection of column idx.
func Pick(idx int) ProjExpr { return ProjExpr{Col: idx} }

// Expr returns a computed projection.
func Expr(fn Projector) ProjExpr { return ProjExpr{Col: -1, Fn: fn} }

// BatchProject computes derived columns batch-at-a-time.
type BatchProject struct {
	child  BatchOp
	schema Schema
	exprs  []ProjExpr
	stat   *opCount
	disp   *exec.Dispatcher
}

// NewBatchProject returns a projection producing schema via exprs.
func NewBatchProject(child BatchOp, schema Schema, exprs []ProjExpr) (*BatchProject, error) {
	if len(schema) != len(exprs) {
		return nil, fmt.Errorf("relational: batch project: %d columns but %d expressions", len(schema), len(exprs))
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
	n := b.Len()
	out := &Batch{Schema: p.schema, Cols: make([]Vector, len(p.exprs)), Seq: b.Seq, n: n}
	work := func() error {
		var boxed []int // outputs only a row closure can compute
		for i, e := range p.exprs {
			switch {
			case e.Col >= 0:
				out.Cols[i] = b.Cols[e.Col]
			case e.Vec != nil:
				out.Cols[i] = e.Vec(b)
			default:
				out.Cols[i] = NewVector(p.schema[i].Type, n)
				boxed = append(boxed, i)
			}
		}
		var buf Row
		for r := 0; r < n && len(boxed) > 0; r++ {
			buf = b.Row(r, buf)
			for _, i := range boxed {
				val, err := p.exprs[i].Fn(buf)
				if err != nil {
					return err
				}
				out.Cols[i].Append(val)
			}
		}
		return nil
	}
	if err := p.disp.Run(n, work); err != nil {
		return nil, err
	}
	p.stat.add(n)
	return out, nil
}

// Stats implements BatchOp.
func (p *BatchProject) Stats() OpStats { return heteroStats(p.stat, p.disp) }

// Partition implements Partitioner.
func (p *BatchProject) Partition(n int, static bool) []BatchOp {
	pr, ok := p.child.(Partitioner)
	if !ok {
		return nil
	}
	parts := pr.Partition(n, static)
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
			trimmed := &Batch{Schema: b.Schema, Cols: make([]Vector, len(b.Cols)), Seq: b.Seq, n: remaining}
			for c := range b.Cols {
				trimmed.Cols[c] = b.Cols[c].Slice(0, remaining)
			}
			b = trimmed
		}
	}
	l.stat.add(b.Len())
	return b, nil
}

// Stats implements BatchOp.
func (l *BatchLimit) Stats() OpStats { return l.stat.stats() }
