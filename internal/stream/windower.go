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
	// preSeq is the pane batch schema: the pre-projection plus a trailing
	// Int #seq column carrying the global accepted-event ordinal. Feeding
	// it as the seq column makes EmitRows(bySeq) reproduce first-seen
	// order in append order — the batch engine's group order.
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

// pane is one pane's accumulated state: an aggregate in incremental
// mode, retained raw rows in recompute mode. snap memoizes the
// aggregate's snapshot between observations — a sliding window's pane is
// read by Size/Slide windows, and the snapshot only changes when a (late)
// event lands in the pane, so the common case pays one snapshot per pane
// instead of one per covering window.
type pane struct {
	agg    *relational.SpillableAgg
	snap   *relational.PartialAgg
	rows   []relational.Row
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
		q:     q,
		spec:  spec,
		paneW: gcd(spec.Size, spec.Slide),
		panes: map[int64]*pane{},
	}
	w.preSeq = append(append(relational.Schema{}, q.PreSchema...),
		relational.Column{Name: "#seq", Type: relational.Int})
	w.seqCol = len(q.PreSchema)
	return w
}

// observe folds one published batch in, advances the watermark, and
// returns any windows that became emittable (ascending start order).
func (w *windower) observe(rows []relational.Row) ([]Window, error) {
	var batches map[int64]*relational.Batch
	var touched []int64
	for _, row := range rows {
		if w.q.Filter != nil {
			keep, err := w.q.Filter(row)
			if err != nil {
				return nil, err
			}
			if !keep {
				w.filtered++
				continue
			}
		}
		t := row[w.q.TimeCol].I
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
		pre := make(relational.Row, 0, len(w.q.PreExprs)+1)
		for _, ex := range w.q.PreExprs {
			v, err := ex(row)
			if err != nil {
				return nil, err
			}
			pre = append(pre, v)
		}
		pre = append(pre, relational.IntV(w.seq))
		w.seq++
		w.events++

		pS := alignDown(t, w.paneW)
		p := w.panes[pS]
		if p == nil {
			p = &pane{}
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
		if w.spec.Recompute {
			p.rows = append(p.rows, pre)
			continue
		}
		if batches == nil {
			batches = map[int64]*relational.Batch{}
		}
		b := batches[pS]
		if b == nil {
			b = relational.NewBatch(w.preSeq, len(rows))
			batches[pS] = b
			touched = append(touched, pS)
		}
		b.AppendRow(pre)
	}
	for _, pS := range touched {
		if err := w.panes[pS].agg.ObserveBatch(batches[pS], w.seqCol); err != nil {
			return nil, err
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
// (incremental) or re-aggregate retained rows (recompute baseline), emit
// groups in global first-seen order, apply the final projection.
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
			b := relational.NewBatch(w.preSeq, len(p.rows))
			for _, r := range p.rows {
				b.AppendRow(r)
			}
			if err := acc.ObserveBatch(b, w.seqCol); err != nil {
				return Window{}, err
			}
			continue
		}
		acc.MergeFrom(p.snapshot())
	}
	aggRows := acc.EmitRows(w.q.AggSchema, true)
	rel := relational.NewRelation("window", w.q.OutSchema)
	for _, r := range aggRows {
		out := make(relational.Row, len(w.q.OutExprs))
		for i, ex := range w.q.OutExprs {
			v, err := ex(r)
			if err != nil {
				return Window{}, err
			}
			out[i] = v
		}
		if err := rel.Append(out); err != nil {
			return Window{}, fmt.Errorf("stream: window [%d,%d): %w", s, s+w.spec.Size, err)
		}
	}
	return Window{Start: s, End: s + w.spec.Size, Rows: rel, Events: events, Late: late}, nil
}
