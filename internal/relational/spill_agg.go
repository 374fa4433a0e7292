package relational

// SpillableAgg wraps PartialAgg with generation-based external
// aggregation: rows fold into the current in-memory generation; when the
// generation's state no longer fits the budget, it is hash-split by
// group key into fanout sub-partials and spilled (modeled) to the tier,
// and a fresh generation continues with the arrival counter carried
// over. Finish reads the spilled partitions back partition-wise, folds
// them in generation order — a group's rows always hash to the same
// partition, so its states merge in arrival order and exact (integer)
// aggregates reproduce the unbudgeted results bit-for-bit — and restores
// the stream's first-seen group order from the (firstSeq, firstOrd)
// tags. A nil budget makes the wrapper a transparent passthrough, and a
// global aggregate (no group columns) never spills: its state is one
// group.
type SpillableAgg struct {
	groupCols []int
	aggs      []AggSpec
	budget    *MemoryBudget
	meter     *spillMeter

	cur      *PartialAgg
	reserved int64 // bytes of cur currently charged to the budget
	// spilled[j] holds partition j's sub-partials, one per spill event,
	// in generation order.
	spilled [graceFanout][]spilledPart
	spills  int
}

type spilledPart struct {
	pa    *PartialAgg
	bytes int64
}

// NewSpillableAgg returns a budgeted aggregation participant. meter may
// be nil (one is derived from the budget), letting callers without an
// operator-level stats surface — the distributed partial-agg workers —
// still charge the query aggregate.
func NewSpillableAgg(groupCols []int, aggs []AggSpec, budget *MemoryBudget, meter *spillMeter) *SpillableAgg {
	if meter == nil {
		meter = newSpillMeter(budget)
	}
	return &SpillableAgg{
		groupCols: groupCols, aggs: aggs, budget: budget, meter: meter,
		cur: NewPartialAgg(groupCols, aggs),
	}
}

// ObserveBatch folds one batch into the current generation, then settles
// the generation's growth against the budget; on overflow the generation
// spills and a fresh one continues.
func (s *SpillableAgg) ObserveBatch(b *Batch, seqCol int) error {
	if err := s.cur.ObserveBatch(b, seqCol); err != nil {
		return err
	}
	if s.budget == nil || len(s.groupCols) == 0 {
		return nil
	}
	bytes := int64(s.cur.StateBytes())
	delta := bytes - s.reserved
	if delta <= 0 {
		return nil
	}
	if s.budget.Reserve(delta) {
		s.reserved = bytes
		return nil
	}
	s.spill()
	return nil
}

// spill hash-splits the current generation into fanout partitions by
// group key, prices writing each out, releases the generation's budget,
// and starts a fresh generation whose ordinals continue the sequence.
func (s *SpillableAgg) spill() {
	nextOrd := s.cur.Rows()
	for j, sub := range splitPartial(s.cur, graceFanout) {
		if sub == nil {
			continue
		}
		bytes := int64(sub.StateBytes())
		s.meter.notePartition(1)
		s.meter.chargeWrite(bytes)
		s.spilled[j] = append(s.spilled[j], spilledPart{pa: sub, bytes: bytes})
	}
	s.spills++
	s.budget.Release(s.reserved)
	s.reserved = 0
	s.cur = NewPartialAgg(s.groupCols, s.aggs)
	s.cur.StartOrdAt(nextOrd)
}

// splitPartial partitions p's groups by key hash, copying each group (its
// state and tags intact, relative order preserved) into one of fanout
// sub-partials. Entries for empty partitions are nil. The hash is over
// the groups' Value.Key() rendering — boxed here, once per group per
// spill, so partition sizes stay what they were under string-keyed
// groups.
func splitPartial(p *PartialAgg, fanout int) []*PartialAgg {
	subs := make([]*PartialAgg, fanout)
	var kb []byte
	for g := 0; g < p.Groups(); g++ {
		kb = kb[:0]
		for _, key := range p.keys() {
			kb = append(kb, key.Value(g).Key()...)
			kb = append(kb, 0)
		}
		j := int(fnv64(string(kb)) % uint64(fanout))
		if subs[j] == nil {
			subs[j] = p.emptyLike()
		}
		subs[j].appendGroup(p, g)
	}
	return subs
}

// Snapshot is a repeatable Finish: it merges the spilled partitions and
// the resident generation into a fresh partial, leaving every original
// intact so more batches may fold in afterwards. Streaming windows use it — a
// pane's aggregate is read once per window that covers it while the pane
// keeps accepting late events. Reads of spilled partitions are priced on
// every call, like the re-reads they model. The returned partial is
// owned by the caller.
func (s *SpillableAgg) Snapshot() *PartialAgg {
	if s.spills == 0 {
		return s.cur.Clone()
	}
	total := s.cur.Rows()
	out := NewPartialAgg(s.groupCols, s.aggs)
	for j := range s.spilled {
		for _, sp := range s.spilled[j] {
			s.meter.chargeRead(sp.bytes)
			out.MergeFrom(sp.pa)
		}
	}
	out.MergeFrom(s.cur)
	out.SortOrderBySeq()
	out.StartOrdAt(total)
	return out
}

// Discard releases the resident generation's budget reservation — the
// retirement path of a streaming pane that has been read into its last
// window. The aggregate must not observe further batches afterwards.
func (s *SpillableAgg) Discard() {
	if s.budget != nil && s.reserved > 0 {
		s.budget.Release(s.reserved)
		s.reserved = 0
	}
}

// Finish merges the spilled partitions back (pricing the reads), folds
// the resident generation in last, and restores the stream's true
// first-seen order. The returned partial is interchangeable with one
// built without a budget.
func (s *SpillableAgg) Finish() *PartialAgg {
	if s.spills == 0 {
		return s.cur
	}
	total := s.cur.Rows()
	out := NewPartialAgg(s.groupCols, s.aggs)
	for j := range s.spilled {
		for _, sp := range s.spilled[j] {
			s.meter.chargeRead(sp.bytes)
			out.MergeFrom(sp.pa)
		}
	}
	out.MergeFrom(s.cur)
	out.SortOrderBySeq()
	out.StartOrdAt(total)
	return out
}
