package dist

import (
	"math"

	"repro/internal/exec"
	"repro/internal/relational"
)

// Output is what a shard hands the next stage. Its encoded size is what
// the shard's fragment would ship, and what a speculative duplicate of
// the fragment is priced by.
type Output interface{ EncodedBytes() float64 }

// Sink is what one shard does with its fragment's stream: consume op to
// end of stream and return the shard's output. A sink may run more than
// once for a shard, concurrently (a speculative pair), so it keeps its
// state per call.
type Sink[T Output] func(shard int, op relational.BatchOp) (T, error)

// DrainSink drains a shard's stream into a column-built relation
// (relational.Drain: vectors in, vectors out, nothing boxed). workers caps
// intra-shard morsel parallelism (the per-host core count; 0 = NumCPU).
func DrainSink(name string, workers int) Sink[*relational.Relation] {
	return func(_ int, op relational.BatchOp) (*relational.Relation, error) {
		return relational.Drain(op, workers, name)
	}
}

// PartialAggSink folds a shard's stream into a private PartialAgg,
// tagging each group's first appearance with the stream's seqCol so the
// coordinator can merge partials into the exact single-node first-seen
// order. disp, when non-nil, routes shard i's per-batch partial updates
// through disp[i] — each simulated worker host placing its aggregation
// morsels on its own device set (nil slice or entries keep the
// homogeneous engine). budgets, when non-nil, charges shard i's group
// state against budgets[i] — each simulated host accounting its own
// memory — and spills overflowing generations to the budget's tier (nil
// slice or entries keep the unbudgeted engine, bit-identically).
func PartialAggSink(groupCols []int, aggs []relational.AggSpec, seqCol, workers int, disp []*exec.Dispatcher, budgets []*relational.MemoryBudget) Sink[*relational.PartialAgg] {
	return func(s int, op relational.BatchOp) (*relational.PartialAgg, error) {
		var di *exec.Dispatcher
		if s < len(disp) {
			di = disp[s]
		}
		var bg *relational.MemoryBudget
		if s < len(budgets) {
			bg = budgets[s]
		}
		sa := relational.NewSpillableAgg(groupCols, aggs, bg, nil)
		err := relational.InOrder(op, workers, func(b *relational.Batch) error {
			return di.Run(b.Len(), func() error { return sa.ObserveBatch(b, seqCol) })
		})
		if err != nil {
			// A failed or cancelled attempt returns what it reserved.
			sa.Discard()
			return nil, err
		}
		return sa.Finish(), nil
	}
}

// RunShards is the one shard fan-out every fragment round goes through.
// Each shard is its own simulated host: each(s, run) executes on shard
// s's goroutine, and run(op) feeds op to the sink under the round's
// cancel token (relational.GuardBatch, which partitions through to every
// partition the sink drains) — the first failing shard cancels it with its
// error and every sibling's stream ends at its next batch boundary instead
// of draining its full input. each decides what a shard attempts: the
// unguarded entry points below run the shard's one fragment,
// lifecycle.Guard builds the fragment on the spot and races two attempts on
// a straggler.
func RunShards[T Output](n int, sink Sink[T], each func(s int, run func(relational.BatchOp) (T, error)) (T, error)) ([]T, error) {
	outs := make([]T, n)
	stop := relational.NewCancelToken()
	err := relational.Parallel(n, stop, func(s int) (err error) {
		outs[s], err = each(s, func(op relational.BatchOp) (T, error) {
			return sink(s, relational.GuardBatch(op, stop))
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// runUnguarded runs one prebuilt fragment per shard through sink: no
// fault plan, no speculation. The engine runs its rounds through
// lifecycle.Guard; these entry points serve callers that hold no cluster.
func runUnguarded[T Output](frags []relational.BatchOp, sink Sink[T]) ([]T, error) {
	return RunShards(len(frags), sink, func(s int, run func(relational.BatchOp) (T, error)) (T, error) {
		return run(frags[s])
	})
}

// RunFragments executes one shard-local operator tree per worker
// concurrently, drains each into a column-built relation (DrainSink) and
// fills every output's Rows (RowView), for callers that index the fragment
// outputs as rows.
func RunFragments(name string, frags []relational.BatchOp, workers int) ([]*relational.Relation, error) {
	outs, err := runUnguarded(frags, DrainSink(name, workers))
	for _, rel := range outs {
		rel.RowView()
	}
	return outs, err
}

// RunPartialAggs folds one shard-local fragment per worker concurrently
// into a private PartialAgg (PartialAggSink).
func RunPartialAggs(frags []relational.BatchOp, groupCols []int, aggs []relational.AggSpec, seqCol, workers int, disp []*exec.Dispatcher, budgets []*relational.MemoryBudget) ([]*relational.PartialAgg, error) {
	return runUnguarded(frags, PartialAggSink(groupCols, aggs, seqCol, workers, disp, budgets))
}

// SeqMerger walks per-shard #seq-ascending streams in global seq order,
// a run at a time: a run is a maximal stretch of one stream's rows that
// the k-way merge emits back to back. Every input must be seq-ascending
// (shard streams are by construction); equal tags — join fan-out
// duplicates — can only occur within one shard, and a tie between
// streams goes to the lower index, so the visit order is a total
// deterministic order equal to the single-node row order. Range-sharded
// streams are disjoint ascending ranges — one run per shard, its end
// found by galloping — so a merge is a handful of range copies per
// column; hash-placed streams interleave row by row, so their runs are
// about one row long: the merger keeps each stream's head tag cached and
// MergeInto copies column by column over a block of collected runs, so a
// one-row run costs a few compares and one append per column. Every
// seq-ordered primitive (MergeBySeq,
// GatherChunks, Repartition's per-destination merge, the planner's
// re-sequencing) iterates through it, keeping the tie-break rule in one
// place.
//
// Merging to bounds[0], bounds[1], … as gather chunks land yields, row
// for row, the relation MergeBySeq builds in one shot.
type SeqMerger struct {
	seqs  [][]int64
	cols  [][]relational.Vector // per-shard columns; nil for a bare seq merge
	pos   []int
	taken int
	// heads[i] is seqs[i][pos[i]] while stream i has rows left; live
	// lists the streams that do, in index order.
	heads []int64
	live  []int
	block [256]seqRun // MergeInto's runs, a block at a time
}

// seqRun is rows [lo, hi) of one shard's stream.
type seqRun struct{ shard, lo, hi int32 }

// NewSeqMerger returns a merger over the per-shard relations (each must
// be seqCol-ascending).
func NewSeqMerger(shards []*relational.Relation, seqCol int) *SeqMerger {
	m := &SeqMerger{seqs: make([][]int64, len(shards)), cols: make([][]relational.Vector, len(shards))}
	for i, sh := range shards {
		m.cols[i] = sh.Columnar()
		m.seqs[i] = m.cols[i][seqCol].Ints
	}
	m.start()
	return m
}

// newSeqOnlyMerger returns a bare merger over seq vectors.
func newSeqOnlyMerger(seqs [][]int64) *SeqMerger {
	m := &SeqMerger{seqs: seqs}
	m.start()
	return m
}

func (m *SeqMerger) start() {
	m.pos = make([]int, len(m.seqs))
	m.heads = make([]int64, len(m.seqs))
	for i, s := range m.seqs {
		if len(s) > 0 {
			m.heads[i] = s[0]
			m.live = append(m.live, i)
		}
	}
}

// next returns the run that comes next in global seq order, at most upto
// − taken rows long, and advances past it; ok is false once every stream
// is exhausted or upto is reached.
func (m *SeqMerger) next(upto int) (r seqRun, ok bool) {
	if m.taken >= upto || len(m.live) == 0 {
		return r, false
	}
	// best is the first live stream holding the smallest head. The run
	// lasts while it stays so: strictly below every earlier stream's head,
	// at or below every later one's. One pass finds both: when a later
	// stream takes the lead, every stream seen so far holds a head at or
	// above the old best's, which (less one) is then the limit — and is
	// above the new best's head, so the decrement cannot wrap.
	bi := 0
	hb := m.heads[m.live[0]]
	limit := int64(math.MaxInt64)
	for j := 1; j < len(m.live); j++ {
		if h := m.heads[m.live[j]]; h < hb {
			bi, hb, limit = j, h, hb-1
		} else {
			limit = min(limit, h)
		}
	}
	best := m.live[bi]
	s, lo := m.seqs[best], m.pos[best]
	end := min(len(s), lo+upto-m.taken)
	hi := lo + 1
	if hi < end && s[hi] <= limit {
		// A run longer than one row (a range shard's can be the whole
		// shard): gallop to a row past it, then bisect. in is in the run;
		// out is end or the first row found past it.
		in, step := hi, 1
		for in+step < end && s[in+step] <= limit {
			in += step
			step *= 2
		}
		out := min(in+step, end)
		for out-in > 1 {
			if mid := int(uint(in+out) >> 1); s[mid] <= limit {
				in = mid
			} else {
				out = mid
			}
		}
		hi = out
	}
	m.pos[best] = hi
	m.taken += hi - lo
	if hi < len(s) {
		m.heads[best] = s[hi]
	} else {
		m.live = append(m.live[:bi], m.live[bi+1:]...)
	}
	return seqRun{int32(best), int32(lo), int32(hi)}, true
}

// TakeRuns visits rows ranked [taken, upto) in global seq order as runs,
// calling fn(shard, lo, hi) for rows [lo, hi) of that shard, and
// advances the merger.
func (m *SeqMerger) TakeRuns(upto int, fn func(shard, lo, hi int)) {
	for r, ok := m.next(upto); ok; r, ok = m.next(upto) {
		fn(int(r.shard), int(r.lo), int(r.hi))
	}
}

// Take is TakeRuns a row at a time: fn(shard, rowIndex) per row.
func (m *SeqMerger) Take(upto int, fn func(shard, row int)) {
	m.TakeRuns(upto, func(shard, lo, hi int) {
		for r := lo; r < hi; r++ {
			fn(shard, r)
		}
	})
}

// Columns returns empty columns for schema, with room for n rows, to merge
// into: a String column the shards all hold coded over one dictionary
// stays coded (see relational.NewColumns).
func (m *SeqMerger) Columns(schema relational.Schema, n int) []relational.Vector {
	return relational.NewColumns(schema, n, m.cols...)
}

// MergeInto appends the rows ranked [taken, upto) onto dst; dst may be
// narrower than the shards (the trailing columns — the seq column, when
// stripping — are dropped). It collects the runs a block at a time, then
// appends the block column by column, one type switch per column.
func (m *SeqMerger) MergeInto(dst []relational.Vector, upto int) {
	for {
		n := 0
		for ; n < len(m.block); n++ {
			r, ok := m.next(upto)
			if !ok {
				break
			}
			m.block[n] = r
		}
		runs := m.block[:n]
		for c := range dst {
			d := &dst[c]
			switch d.T {
			case relational.Int:
				for _, r := range runs {
					if src := m.cols[r.shard][c].Ints; r.hi-r.lo == 1 {
						d.Ints = append(d.Ints, src[r.lo])
					} else {
						d.Ints = append(d.Ints, src[r.lo:r.hi]...)
					}
				}
			case relational.Float:
				for _, r := range runs {
					if src := m.cols[r.shard][c].Floats; r.hi-r.lo == 1 {
						d.Floats = append(d.Floats, src[r.lo])
					} else {
						d.Floats = append(d.Floats, src[r.lo:r.hi]...)
					}
				}
			default:
				for _, r := range runs {
					d.AppendRange(&m.cols[r.shard][c], int(r.lo), int(r.hi))
				}
			}
		}
		if n < len(m.block) {
			return
		}
	}
}

func totalRows(shards []*relational.Relation) int {
	n := 0
	for _, s := range shards {
		n += s.Len()
	}
	return n
}

// MergeBySeq k-way merges per-shard relations on the seqCol column into
// one column-built relation. strip drops the seq column (which must be
// the last) from the output.
func MergeBySeq(name string, shards []*relational.Relation, seqCol int, strip bool) *relational.Relation {
	schema := shards[0].Schema
	if strip {
		schema = schema[:seqCol]
	}
	total := totalRows(shards)
	m := NewSeqMerger(shards, seqCol)
	cols := m.Columns(schema, total)
	m.MergeInto(cols, total)
	return relational.NewColumnRelation(name, schema, cols, total)
}

// Repartition hashes each shard relation's rows on keyCol into one
// bucket per destination shard and reassembles every destination's
// bucket in seqCol order (ties between sources in source order, so
// fan-out duplicates keep their order). It returns the per-destination
// relations plus the transfers crossing the fabric (rows whose bucket is
// their current shard move no bytes): RepartitionChunks' one covering
// chunk.
func Repartition(shards []*relational.Relation, keyCol, seqCol int) ([]*relational.Relation, []Transfer) {
	dests, chunks := RepartitionChunks(shards, keyCol, seqCol, 0)
	return dests, coveringTransfers(chunks)
}

// coveringTransfers returns the transfers of a chunker's one covering
// chunk, or nil when the payload was empty and there is no chunk.
func coveringTransfers(chunks []Chunk) []Transfer {
	if len(chunks) == 0 {
		return nil
	}
	return chunks[0].Transfers
}

// repartition computes every source row's destination (place[src][row])
// and the seq-ordered destination relations. Each (source, destination)
// pair gets the ascending selection vector of the source rows bound
// there; a destination's bucket is the seq merge of its selections,
// gathered run by run.
func repartition(shards []*relational.Relation, keyCol, seqCol int) (dests []*relational.Relation, place [][]int32) {
	s := len(shards)
	place = make([][]int32, s)
	sels := make([][][]int32, s)
	srcCols := make([][]relational.Vector, s)
	for src, rel := range shards {
		cols := rel.Columnar()
		srcCols[src] = cols
		place[src] = destinations(&cols[keyCol], rel.Len(), s)
		sels[src] = make([][]int32, s)
		for r, d := range place[src] {
			sels[src][d] = append(sels[src][d], int32(r))
		}
	}
	dests = make([]*relational.Relation, s)
	for d := range dests {
		seqs := make([][]int64, s)
		total := 0
		for src := range shards {
			seqs[src] = relational.GatherVector(&srcCols[src][seqCol], sels[src][d]).Ints
			total += len(sels[src][d])
		}
		m := newSeqOnlyMerger(seqs)
		cols := relational.NewColumns(shards[0].Schema, total, srcCols...)
		m.TakeRuns(total, func(src, lo, hi int) {
			for c := range cols {
				cols[c].AppendGather(&srcCols[src][c], sels[src][d][lo:hi])
			}
		})
		dests[d] = relational.NewColumnRelation(shards[0].Name, shards[0].Schema, cols, total)
	}
	return dests, place
}

// Broadcast replicates the union of the shard relations to every worker:
// it returns the seq-merged relation (the build side every shard will
// probe against, in exact serial order, seq column stripped when strip —
// one set of immutable vectors all shards share) plus the all-to-all
// transfer list: BroadcastChunksCols' one covering chunk.
func Broadcast(shards []*relational.Relation, seqCol int, strip bool) (*relational.Relation, []Transfer) {
	merged, chunks, _ := BroadcastChunksCols(shards, seqCol, strip, 0)
	return merged, coveringTransfers(chunks)
}
