package stream

import (
	"fmt"

	"repro/internal/relational"
)

// windower is the incremental window-maintenance state machine of one
// subscription. It is not safe for concurrent use — the subscription's
// delivery goroutine owns it.
//
// Events bucket into panes of width gcd(Size, Slide); window boundaries
// are multiples of Slide and window length is Size, so every pane is
// fully contained in every window that touches it and a closing window
// is exactly the merge of Size/paneW consecutive pane aggregates. Panes
// hold SpillableAgg accumulators (budget-aware, transparent when the
// budget is nil); a window emission merges deep-copied pane snapshots so
// a pane feeding several sliding windows is never aliased into a merge
// that would mutate it.
type windower struct {
	q     *Query
	spec  WindowSpec
	paneW int64
	// in/inPre project an input batch to the pre-projection plus the
	// event time, at seqCol. preSeq, the pane batch schema, holds the
	// global accepted-event ordinal there instead: fed as the seq column,
	// it makes EmitCols(bySeq) reproduce first-seen order in append order
	// — the batch engine's group order.
	in     relational.Schema
	inPre  []relational.ProjExpr
	preSeq relational.Schema
	seqCol int

	panes map[int64]*pane
	seq   int64 // accepted events (post-filter), append order
	// maxTime/seen track the watermark base; emittedUpTo seals windows:
	// once sealed, every window with start < emittedUpTo has emitted.
	maxTime     int64
	seen        bool
	sealed      bool
	emittedUpTo int64

	// counters for Stats.
	events, filtered, late, dropped int64
}

// pane is one pane's accumulated state. agg is the incremental aggregate;
// snap memoizes its snapshot between observations — a sliding window's
// pane is read by Size/Slide windows, and the snapshot only changes when
// a (late) event lands in the pane. cols/n stage pre-projected events in
// preSeq layout: one observation's (folded into agg as one batch), or
// every event in recompute mode; sel is the current input batch's rows
// landing here.
type pane struct {
	agg    *relational.SpillableAgg
	snap   *relational.PartialAgg
	cols   []relational.Vector
	n      int
	sel    []int32
	events int64
	late   int64
}

// snapshot returns the pane's current aggregate state, memoized until
// the next event invalidates it. The result is only ever read via
// MergeFrom, which copies.
func (p *pane) snapshot() *relational.PartialAgg {
	if p.snap == nil {
		p.snap = p.agg.Snapshot()
	}
	return p.snap
}

func newWindower(q *Query, spec WindowSpec) *windower {
	w := &windower{
		q:      q,
		spec:   spec,
		paneW:  gcd(spec.Size, spec.Slide),
		panes:  map[int64]*pane{},
		seqCol: len(q.PreSchema),
	}
	w.in = append(append(relational.Schema{}, q.PreSchema...),
		relational.Column{Name: "#time", Type: relational.Int})
	w.inPre = append(append([]relational.ProjExpr{}, q.Pre...), relational.Pick(q.TimeCol))
	w.preSeq = append(append(relational.Schema{}, q.PreSchema...),
		relational.Column{Name: "#seq", Type: relational.Int})
	return w
}

// observe folds one published batch in — filtered and pre-projected
// batch-at-a-time, then bucketed into panes by a typed pass over the
// event times — advances the watermark, and returns any windows that
// became emittable (ascending start order).
func (w *windower) observe(rel *relational.Relation) ([]Window, error) {
	op, err := relational.NewBatchProject(
		relational.NewBatchFilter(relational.NewBatchScan(rel), nil, w.q.Filter), w.in, w.inPre)
	if err != nil {
		return nil, err
	}
	var touched []*pane // in first-event order
	accepted := 0
	for {
		b, err := op.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		b = b.Dense()
		accepted += b.Len()
		var hit []*pane
		for r, t := range b.Cols[w.seqCol].Ints {
			// The latest window containing t starts at alignDown(t, Slide); if
			// even that one has emitted, the event has nowhere to land.
			if w.sealed && alignDown(t, w.spec.Slide) < w.emittedUpTo {
				w.dropped++
				continue
			}
			late := w.seen && t < w.maxTime
			if late {
				w.late++
			}
			if !w.seen || t > w.maxTime {
				w.maxTime, w.seen = t, true
			}
			w.events++
			pS := alignDown(t, w.paneW)
			p := w.panes[pS]
			if p == nil {
				p = &pane{cols: relational.NewBatch(w.preSeq, 0).Cols}
				if !w.spec.Recompute {
					p.agg = relational.NewSpillableAgg(w.q.GroupCols, w.q.AggSpecs, w.q.Budget, nil)
				}
				w.panes[pS] = p
			}
			p.events++
			p.snap = nil
			if late {
				p.late++
			}
			if len(p.sel) == 0 {
				if p.n == 0 {
					touched = append(touched, p)
				}
				hit = append(hit, p)
			}
			p.sel = append(p.sel, int32(r))
			p.cols[w.seqCol].Ints = append(p.cols[w.seqCol].Ints, w.seq)
			w.seq++
		}
		for _, p := range hit {
			for c := range w.seqCol {
				p.cols[c].AppendGather(&b.Cols[c], p.sel)
			}
			p.n += len(p.sel)
			p.sel = p.sel[:0]
		}
	}
	w.filtered += int64(rel.Len() - accepted)
	if !w.spec.Recompute {
		for _, p := range touched {
			if err := p.agg.ObserveBatch(relational.BatchOf(w.preSeq, p.cols, p.n), w.seqCol); err != nil {
				return nil, err
			}
			p.cols, p.n = relational.NewBatch(w.preSeq, 0).Cols, 0
		}
	}
	if !w.seen {
		return nil, nil
	}
	return w.advance(w.maxTime - w.spec.Lateness)
}

// flush emits every remaining window — the end-of-stream watermark.
func (w *windower) flush() ([]Window, error) {
	var out []Window
	for {
		s, ok := w.nextWindow()
		if !ok {
			return out, nil
		}
		win, err := w.emitWindow(s)
		if err != nil {
			return out, err
		}
		out = append(out, win)
		w.seal(s)
	}
}

// advance emits every window whose end the watermark has reached.
func (w *windower) advance(wm int64) ([]Window, error) {
	var out []Window
	for {
		s, ok := w.nextWindow()
		if !ok || s+w.spec.Size > wm {
			return out, nil
		}
		win, err := w.emitWindow(s)
		if err != nil {
			return out, err
		}
		out = append(out, win)
		w.seal(s)
	}
}

// nextWindow finds the earliest un-emitted window start covered by at
// least one live pane. Empty windows never emit — the batch engine's
// answer over an eventless range would be empty too (grouped queries)
// and enumerating them is unbounded for sparse streams.
func (w *windower) nextWindow() (int64, bool) {
	var sMin int64
	found := false
	for pS := range w.panes {
		lo := alignUp(pS+w.paneW-w.spec.Size, w.spec.Slide)
		if w.sealed && lo < w.emittedUpTo {
			lo = w.emittedUpTo
		}
		if lo > pS {
			continue
		}
		if !found || lo < sMin {
			sMin, found = lo, true
		}
	}
	return sMin, found
}

// seal marks window start s emitted and retires panes no future window
// can cover, releasing their budget reservations.
func (w *windower) seal(s int64) {
	w.emittedUpTo = s + w.spec.Slide
	w.sealed = true
	for pS, p := range w.panes {
		if pS < w.emittedUpTo {
			if p.agg != nil {
				p.agg.Discard()
			}
			delete(w.panes, pS)
		}
	}
}

// emitWindow materializes window [s, s+Size): merge pane snapshots
// (incremental) or re-aggregate the staged events (recompute baseline),
// emit groups in global first-seen order, apply the final projection.
func (w *windower) emitWindow(s int64) (Window, error) {
	acc := relational.NewPartialAgg(w.q.GroupCols, w.q.AggSpecs)
	var events, late int64
	for pS := s; pS < s+w.spec.Size; pS += w.paneW {
		p := w.panes[pS]
		if p == nil {
			continue
		}
		events += p.events
		late += p.late
		if w.spec.Recompute {
			if err := acc.ObserveBatch(relational.BatchOf(w.preSeq, p.cols, p.n), w.seqCol); err != nil {
				return Window{}, err
			}
			continue
		}
		acc.MergeFrom(p.snapshot())
	}
	cols, n := acc.EmitCols(w.q.AggSchema, true)
	out, err := relational.NewBatchProject(relational.NewBatchScan(
		relational.NewColumnRelation("window", w.q.AggSchema, cols, n)), w.q.OutSchema, w.q.Out)
	var rel *relational.Relation
	if err == nil {
		rel, err = relational.Drain(out, 1, "window")
	}
	if err != nil {
		return Window{}, fmt.Errorf("stream: window [%d,%d): %w", s, s+w.spec.Size, err)
	}
	return Window{Start: s, End: s + w.spec.Size, Rows: rel, Events: events, Late: late}, nil
}
