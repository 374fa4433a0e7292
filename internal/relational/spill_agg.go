package relational

import "strconv"

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
// and starts a fresh generation whose ordinals continue the sequence. The
// generation is copied out reordered partition by partition, with one
// gather per column — the spilled partitions are windows of that copy —
// so the fresh generation reuses the emptied vectors and lookup at the
// size they grew to.
func (s *SpillableAgg) spill() {
	nextOrd := s.cur.Rows()
	order, bounds := splitGroups(s.cur, graceFanout)
	scattered := s.cur.gatherGroups(order)
	for j := range s.spilled {
		if bounds[j] == bounds[j+1] {
			continue
		}
		sub := scattered.window(bounds[j], bounds[j+1])
		bytes := int64(sub.StateBytes())
		s.meter.notePartition(1)
		s.meter.chargeWrite(bytes)
		s.spilled[j] = append(s.spilled[j], spilledPart{pa: sub, bytes: bytes})
	}
	s.spills++
	s.budget.Release(s.reserved)
	s.reserved = 0
	s.cur.reset()
	s.cur.StartOrdAt(nextOrd)
}

// splitGroups assigns p's groups to fanout partitions by key hash and
// returns the group ids ordered by partition (ascending within one):
// partition j's are order[bounds[j]:bounds[j+1]]. The hash is FNV-1a over
// the bytes of every key cell's Value.Key() rendering followed by a NUL,
// formatted into a stack buffer from the typed key columns — nothing is
// boxed, and partition sizes stay what they were under string-keyed
// groups.
func splitGroups(p *PartialAgg, fanout int) (order []int32, bounds []int) {
	n := p.Groups()
	h := make([]uint64, n)
	for g := range h {
		h[g] = fnvOffset64
	}
	var buf [32]byte
	for _, key := range p.keys() {
		switch key.T {
		case Int:
			for g, v := range key.Ints[:n] {
				h[g] = fnvKeyCell(h[g], strconv.AppendInt(append(buf[:0], 'i'), v, 10))
			}
		case Float:
			for g, v := range key.Floats[:n] {
				h[g] = fnvKeyCell(h[g], strconv.AppendFloat(append(buf[:0], 'f'), v, 'b', -1, 64))
			}
		default:
			for g := range n {
				h[g] = fnvKeyCell((h[g]^'s')*fnvPrime64, key.Str(g))
			}
		}
	}
	// A counting sort of the group ids by partition.
	bounds = make([]int, fanout+1)
	for g, hv := range h {
		h[g] = hv % uint64(fanout)
		bounds[h[g]+1]++
	}
	for j := 0; j < fanout; j++ {
		bounds[j+1] += bounds[j]
	}
	order = make([]int32, n)
	next := append([]int(nil), bounds[:fanout]...)
	for g, j := range h {
		order[next[j]] = int32(g)
		next[j]++
	}
	return order, bounds
}

// fnvKeyCell folds (the rest of) one key cell's rendering and its NUL
// terminator into h.
func fnvKeyCell[T string | []byte](h uint64, cell T) uint64 {
	for i := 0; i < len(cell); i++ {
		h = (h ^ uint64(cell[i])) * fnvPrime64
	}
	return h * fnvPrime64 // the NUL: x ^ 0 == x
}

// mergePartitions folds the spilled generations and the resident one into
// a fresh partial, leaving all of them intact and pricing the read of
// every spilled partition. It works partition by partition: a group lives
// in one partition, so each partition's generations — oldest first, the
// resident generation's share last, which is the order one table over all
// partitions would have merged that group in — fold in a table small
// enough to stay in cache (one table, emptied between partitions); the
// disjoint results concatenate, and the (firstSeq, firstOrd) tags restore
// the stream's first-seen order.
func (s *SpillableAgg) mergePartitions() *PartialAgg {
	order, bounds := splitGroups(s.cur, graceFanout)
	out := s.cur.emptyLike()
	part := s.cur.emptyLike()
	for j, gens := range s.spilled {
		part.reset()
		resident := order[bounds[j]:bounds[j+1]]
		groups := len(resident)
		for _, sp := range gens {
			groups += sp.pa.Groups()
		}
		part.index.reserve(part.keys(), groups)
		for g, sp := range gens {
			s.meter.chargeRead(sp.bytes)
			if g == 0 {
				part.AppendDisjoint(sp.pa)
			} else {
				part.MergeFrom(sp.pa)
			}
		}
		part.mergeGroups(s.cur, len(resident), resident)
		if j == 0 {
			// Hash partitions are near even: size the result from the first.
			out.reserve(part.Groups() * (graceFanout + 1))
		}
		out.AppendDisjoint(part)
	}
	out.SortOrderBySeq()
	out.StartOrdAt(s.cur.Rows())
	return out
}

// Snapshot is a repeatable Finish: it leaves every generation intact so
// more batches may fold in afterwards. Streaming windows use it — a pane's
// aggregate is read once per window that covers it while the pane keeps
// accepting late events. Reads of spilled partitions are priced on every
// call, like the re-reads they model. The returned partial is owned by
// the caller.
func (s *SpillableAgg) Snapshot() *PartialAgg {
	if s.spills == 0 {
		return s.cur.Clone()
	}
	return s.mergePartitions()
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
	return s.mergePartitions()
}
