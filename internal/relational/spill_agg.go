package relational

// SpillableAgg is a PartialAgg under a memory budget. The aggregate runs
// its in-memory algorithm — one table, groups in first-seen order — and
// the budget meters what a generation-spilling aggregation would move:
// a group charges the current generation its state bytes the first time
// that generation sees it; when a generation's charge no longer fits the
// budget, its groups are priced as written out in graceFanout key
// partitions, the generation's reservation is released, and a fresh
// generation begins. Finish (and every Snapshot) prices reading each
// spilled (partition, generation) back. The answer is the unbudgeted one,
// bit for bit. A nil budget makes the meter a transparent passthrough, and
// a global aggregate (no group columns) never spills: its state is one
// group.
type SpillableAgg struct {
	p      *PartialAgg
	budget *MemoryBudget
	meter  *spillMeter

	gen       int32   // the current generation
	stamp     []int32 // per group: the last generation it charged
	genGroups []int32 // the groups the current generation charged
	genBytes  int64   // their state bytes
	reserved  int64   // bytes of the current generation charged to the budget
	part      []uint8 // per group: its key partition + 1, 0 until priced
	// pieces counts the (partition, generation) pieces written out, and
	// spilled their bytes.
	pieces, spilled int64
}

// NewSpillableAgg returns a budgeted aggregation participant. meter may
// be nil (one is derived from the budget), letting callers without an
// operator-level stats surface — the distributed partial-agg workers —
// still charge the query aggregate.
func NewSpillableAgg(groupCols []int, aggs []AggSpec, budget *MemoryBudget, meter *spillMeter) *SpillableAgg {
	if meter == nil {
		meter = newSpillMeter(budget)
	}
	return &SpillableAgg{p: NewPartialAgg(groupCols, aggs), budget: budget, meter: meter}
}

// ObserveBatch folds one batch into the aggregate, then charges the
// groups the current generation sees for the first time; when the
// generation's growth no longer fits the budget, it spills.
func (s *SpillableAgg) ObserveBatch(b *Batch, seqCol int) error {
	return s.observe(b, b.Sel, seqCol, s.p.ord)
}

// observe is ObserveBatch over the rows sel picks, as PartialAgg.observe
// takes them.
func (s *SpillableAgg) observe(b *Batch, sel []int32, seqCol int, first int64) error {
	if err := s.p.observe(b, sel, seqCol, first); err != nil {
		return err
	}
	s.charge()
	return nil
}

// charge meters the groups of the rows last folded (the partial's gids):
// each one the current generation sees for the first time charges its
// state bytes; when the generation's growth no longer fits the budget, it
// spills.
func (s *SpillableAgg) charge() {
	if s.budget == nil || len(s.p.groupCols) == 0 {
		return
	}
	sizer, per := NewRowSizer(s.p.keys()), len(s.p.aggs)*aggStateBytes
	for _, g := range s.p.gids {
		if int(g) == len(s.stamp) {
			s.stamp = append(s.stamp, s.gen)
		} else if s.stamp[g] != s.gen {
			s.stamp[g] = s.gen
		} else {
			continue
		}
		s.genGroups = append(s.genGroups, g)
		s.genBytes += int64(sizer.Bytes(int(g)) + per)
	}
	delta := s.genBytes - s.reserved
	if delta <= 0 {
		return
	}
	if s.budget.Reserve(delta) {
		s.reserved += delta
		return
	}
	s.spill()
}

// spill prices writing the current generation's groups out, one write
// per non-empty key partition in partition order, releases the
// generation's reservation and starts a fresh generation.
func (s *SpillableAgg) spill() {
	keys, per := s.p.keys(), len(s.p.aggs)*aggStateBytes
	sizer := NewRowSizer(keys)
	if n := s.p.Groups(); len(s.part) < n {
		s.part = append(s.part, make([]uint8, n-len(s.part))...)
	}
	var bytes [graceFanout]int64
	for _, g := range s.genGroups {
		if s.part[g] == 0 {
			s.part[g] = uint8(keyPartition(keys, int(g))) + 1
		}
		bytes[s.part[g]-1] += int64(sizer.Bytes(int(g)) + per)
	}
	for _, b := range bytes {
		if b > 0 {
			s.meter.evict(1, b)
			s.pieces, s.spilled = s.pieces+1, s.spilled+b
		}
	}
	s.budget.Release(s.reserved)
	s.gen++
	s.genGroups, s.genBytes, s.reserved = s.genGroups[:0], 0, 0
}

// keyPartition returns the key partition of row r of the key columns:
// FNV-1a over the bytes of every key cell's Value.Key() rendering, each
// followed by a NUL, modulo graceFanout.
func keyPartition(keys []Vector, r int) int {
	h := FNVOffset
	for c := range keys {
		h = FNVKey(h, &keys[c], r) * fnvPrime64 // the NUL: x ^ 0 == x
	}
	return int(h % graceFanout)
}

// chargeReads counts reading every spilled piece back.
func (s *SpillableAgg) chargeReads() { s.meter.charge(0, 0, s.pieces, s.spilled) }

// Snapshot is a repeatable Finish: the aggregate may observe more batches
// afterwards. Streaming windows use it — a pane's aggregate is read once
// per window that covers it while the pane keeps accepting late events.
// Reads of spilled partitions are priced on every call, like the re-reads
// they model. The returned partial is a copy owned by the caller.
func (s *SpillableAgg) Snapshot() *PartialAgg {
	s.chargeReads()
	return s.p.Clone()
}

// Discard releases the current generation's budget reservation — the
// retirement path of a streaming pane that has been read into its last
// window. The aggregate must not observe further batches afterwards.
func (s *SpillableAgg) Discard() {
	if s.budget != nil && s.reserved > 0 {
		s.budget.Release(s.reserved)
		s.reserved = 0
	}
}

// Finish prices reading the spilled partitions back and returns the
// aggregate: the partial an unbudgeted aggregation builds.
func (s *SpillableAgg) Finish() *PartialAgg {
	s.chargeReads()
	return s.p
}
