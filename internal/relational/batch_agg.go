package relational

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/kernels"
)

// BatchGroupAgg is the morsel-parallel grouped aggregation. It statically
// partitions its child across workers (contiguous morsel ranges) and
// takes one of two paths, picked from the data alone: the first batch of
// the serial stream — the first morsel — decides.
//
//   - Many groups (at least one per manyGroupsRows rows of that batch):
//     each worker scatters its rows by key into key partitions — per
//     partition, the vector positions of its batches' rows, a selection
//     over the same batches, nothing copied. Then each key partition is
//     folded whole, by one worker, into one SpillableAgg: worker 0's
//     rows, then worker 1's, and so on, so every group is built once and
//     folds its rows in serial order, and a group's tag is the global
//     ordinal of its first row. The groups emit in the order of those
//     tags, the serial first-seen order. No step folds groups on one
//     core, and every value — float sums included — is the one-worker
//     engine's, bit for bit, at any worker count.
//   - Few groups: every worker pre-aggregates its range into a private
//     partial, and MergeAll merges the partials in range order, which
//     reproduces the serial first-seen order; float sums round per worker
//     count (deterministically, as the merge order is fixed).
//
// One worker, a global aggregate (no group columns) and empty input take
// the pre-aggregating path. Partitions share a CancelToken: one failing
// partition stops its siblings at their next batch boundary.
type BatchGroupAgg struct {
	child     BatchOp
	groupCols []int
	aggs      []AggSpec
	schema    Schema
	workers   int
	disp      *exec.Dispatcher
	budget    *MemoryBudget
	meter     *spillMeter
	gj        *groupJoin // set by GroupJoin

	q    outQueue
	stat *opCount
}

// NewBatchGroupAgg returns a grouped aggregation over child using up to
// workers goroutines (0 = NumCPU).
func NewBatchGroupAgg(child BatchOp, groupCols []int, aggs []AggSpec, workers int) (*BatchGroupAgg, error) {
	schema, err := groupAggSchema(child.Schema(), groupCols, aggs)
	if err != nil {
		return nil, err
	}
	return &BatchGroupAgg{
		child: child, groupCols: groupCols, aggs: aggs, schema: schema,
		workers: EffectiveWorkers(workers), stat: &opCount{},
	}, nil
}

// Schema implements BatchOp.
func (g *BatchGroupAgg) Schema() Schema { return g.schema }

// Place routes the aggregation morsels through a heterogeneous device
// dispatcher (nil keeps the homogeneous engine). Each input batch is one
// dispatched morsel — its partial update or its scatter, by path; the
// dispatcher is shared across workers.
func (g *BatchGroupAgg) Place(d *exec.Dispatcher) { g.disp = d }

// SetBudget charges the group hash tables — the per-worker partials, or
// the per-key-partition ones — to a query memory budget; they race for it
// and spill generations independently (nil keeps the unbudgeted engine,
// bit-identically). Both paths are picked by the same rule as without a
// budget.
func (g *BatchGroupAgg) SetBudget(b *MemoryBudget) {
	g.budget = b
	g.meter = newSpillMeter(b)
}

// manyGroupsRows is the path rule: a first batch with at least one group
// per manyGroupsRows rows takes the key-partitioned path. A 50k-key Zipf
// column shows ~739 groups in a 1024-row morsel and a 5-value one 5.
const manyGroupsRows = 8

// keyPartsPerWorker is the number of key partitions per worker. Two let
// the fold balance partitions whose rows differ; more would re-read every
// batch once per partition and spread a dense Int key so thin that no
// partition's table fits a direct window (50k dense ids over 4 partitions
// lay out direct, over 6 hashed).
const keyPartsPerWorker = 2

// build pulls every partition's first batch, picks the path from the
// first of them in serial order, and aggregates.
func (g *BatchGroupAgg) build() ([]*Batch, error) {
	if g.gj != nil {
		if out, ok, err := g.gj.run(g); ok || err != nil {
			return out, err
		}
	}
	ps := partitionOrSelf(g.child, g.workers)
	stop := NewCancelToken()
	heads := make([]*Batch, len(ps))
	pulled := len(ps) > 1 && len(g.groupCols) > 0
	if pulled {
		err := Parallel(len(ps), stop, func(i int) (err error) {
			heads[i], err = ps[i].NextBatch()
			return err
		})
		if err != nil {
			return nil, err
		}
		if i := slices.IndexFunc(heads, func(b *Batch) bool { return b != nil }); i >= 0 && g.manyGroups(heads[i]) {
			return g.partitioned(ps, heads, heads[i].Cols, stop)
		}
	}
	return g.preAggregated(ps, heads, pulled, stop)
}

// manyGroups applies the path rule to batch b.
func (g *BatchGroupAgg) manyGroups(b *Batch) bool {
	kc := make([]Vector, len(g.groupCols))
	for i, c := range g.groupCols {
		kc[i] = b.Cols[c]
	}
	var ix keyIndex
	groups := int32(0)
	for i := range b.Len() {
		r := i
		if b.Sel != nil {
			r = int(b.Sel[i])
		}
		if _, fresh := ix.getOrPut(kc, r, groups); fresh {
			groups++
		}
	}
	return int(groups)*manyGroupsRows >= b.Len()
}

// preAggregated folds every partition into a private partial and merges
// them in partition order: partition i's rows precede partition i+1's, so
// appending unseen groups in that order reproduces the serial first-seen
// order. heads are the partitions' first batches when pulled.
func (g *BatchGroupAgg) preAggregated(ps []BatchOp, heads []*Batch, pulled bool, stop *CancelToken) ([]*Batch, error) {
	sas := make([]*SpillableAgg, len(ps))
	for i := range sas {
		sas[i] = NewSpillableAgg(g.groupCols, g.aggs, g.budget, g.meter)
	}
	err := Parallel(len(ps), stop, func(i int) error {
		return drain(ps[i], heads[i], pulled, stop, func(b *Batch) error {
			return g.disp.Run(b.Len(), func() error { return sas[i].ObserveBatch(b, -1) })
		})
	})
	if err != nil {
		return nil, err
	}
	return g.emitMerged(sas), nil
}

// emitMerged merges the workers' partials in partition order and emits
// the groups in that merge's first-seen order.
func (g *BatchGroupAgg) emitMerged(sas []*SpillableAgg) []*Batch {
	parts := make([]*PartialAgg, len(sas))
	for i, sa := range sas {
		parts[i] = sa.Finish()
	}
	cols, n := MergeAll(parts).EmitCols(g.schema, false)
	return windowBatches(g.schema, cols, n)
}

// partitioned scatters every worker's rows by key, folds each key
// partition whole and emits the groups in first-seen order. in are the
// first batch's columns, which type every partition's state.
func (g *BatchGroupAgg) partitioned(ps []BatchOp, heads []*Batch, in []Vector, stop *CancelToken) ([]*Batch, error) {
	nparts := keyPartsPerWorker * len(ps)
	scats := make([]keyScatter, len(ps))
	err := Parallel(len(ps), stop, func(w int) error {
		sc := &scats[w]
		sc.rows, sc.sketch = make([]posList, nparts), make([]keySketch, nparts)
		return drain(ps[w], heads[w], true, stop, func(b *Batch) error {
			return g.disp.Run(b.Len(), func() error {
				sc.add(b, g.groupCols)
				return nil
			})
		})
	})
	if err != nil {
		return nil, err
	}
	// Worker w's rows arrive from ordinal first[w] on: after every row of
	// the workers before it.
	first := make([]int64, len(scats))
	var rows int64
	for w := range scats {
		first[w], rows = rows, rows+scats[w].n
	}
	span := keySpan(scats)
	parts := make([]*PartialAgg, nparts)
	var next atomic.Int64
	err = Parallel(len(ps), stop, func(int) error {
		for p := int(next.Add(1) - 1); p < nparts && !stop.Cancelled(); p = int(next.Add(1) - 1) {
			sa := NewSpillableAgg(g.groupCols, g.aggs, g.budget, g.meter)
			if err := sa.p.presize(in, sketchGroups(scats, p), span); err != nil {
				return err
			}
			for w := range scats {
				if err := scats[w].fold(sa, p, first[w]); err != nil {
					return err
				}
			}
			parts[p] = sa.Finish()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cols, n := emitByOrd(parts, g.schema, rows)
	return windowBatches(g.schema, cols, n), nil
}

// keyScatter is one worker's scatter: its batches in order and, per key
// partition, the vector positions of the batches' rows that partition
// owns — each batch's positions a selection over that batch's vectors —
// and a linear-counting sketch of the partition's keys.
type keyScatter struct {
	batches []*Batch
	rows    []posList // per key partition: positions, batch after batch
	ends    []int32   // per batch, per key partition: where its positions end
	sketch  []keySketch
	n       int64 // rows scattered: the batches' Len
	// span bounds the values of one Int key column (nil until the first
	// batch, and for other keys).
	span *[2]int64
}

// keySketch is a linear-counting bitmap of key hashes: a partition's
// group count estimated from it sizes the partition's table once,
// instead of doubling it from empty.
type keySketch [sketchBits / 64]uint64

const sketchBits = 1 << 14

// sketchGroups estimates the distinct keys of key partition p from the
// union of the workers' sketches, m ln(m/zero bits), plus a sixteenth:
// the estimate's standard error stays near 1% up to 3m keys, and a table
// sized short would double. It is -1 when every bit is set: the estimate
// has run out.
func sketchGroups(scats []keyScatter, p int) int {
	zeros := 0
	for w := range len(keySketch{}) {
		var or uint64
		for i := range scats {
			or |= scats[i].sketch[p][w]
		}
		zeros += 64 - bits.OnesCount64(or)
	}
	if zeros == 0 {
		return -1
	}
	est := sketchBits * math.Log(sketchBits/float64(zeros))
	return int(est + est/16)
}

// keySpan bounds one Int key column's values over every worker's
// batches, or is nil for other keys.
func keySpan(scats []keyScatter) *[2]int64 {
	var span *[2]int64
	for _, sc := range scats {
		switch {
		case sc.span == nil:
		case span == nil:
			span = &[2]int64{sc.span[0], sc.span[1]}
		default:
			span[0], span[1] = min(span[0], sc.span[0]), max(span[1], sc.span[1])
		}
	}
	return span
}

// add scatters batch b by its key columns: one Int or Float key hashes
// through mix64, any other key through FNVKey.
func (s *keyScatter) add(b *Batch, groupCols []int) {
	switch k := &b.Cols[groupCols[0]]; {
	case len(groupCols) == 1 && k.T == Int:
		if b.n > 0 {
			lo, hi := kernels.MinMaxInt64(k.Ints[:b.n])
			if s.span == nil {
				s.span = &[2]int64{lo, hi}
			}
			s.span[0], s.span[1] = min(s.span[0], lo), max(s.span[1], hi)
		}
		if b.Sel == nil {
			for r, v := range k.Ints[:b.n] {
				s.put(mix64(uint64(v)), int32(r))
			}
		} else {
			for _, r := range b.Sel {
				s.put(mix64(uint64(k.Ints[r])), r)
			}
		}
	default:
		for i := range b.Len() {
			r := int32(i)
			if b.Sel != nil {
				r = b.Sel[i]
			}
			var h uint64
			if len(groupCols) == 1 && k.T == Float {
				h = mix64(uint64(floatKeyBits(k.Floats[r])))
			} else {
				h = FNVOffset
				for _, c := range groupCols {
					h = FNVKey(h, &b.Cols[c], int(r)) * fnvPrime64
				}
				h = mix64(h)
			}
			s.put(h, r)
		}
	}
	for p := range s.rows {
		s.ends = append(s.ends, int32(s.rows[p].n))
	}
	s.batches = append(s.batches, b)
	s.n += int64(b.Len())
}

// put files the row at vector position r, whose key hashes to h: the
// high half picks the partition, the low bits the sketch bit.
func (s *keyScatter) put(h uint64, r int32) {
	p := int((h >> 32) * uint64(len(s.rows)) >> 32)
	s.sketch[p][h>>6%uint64(len(keySketch{}))] |= 1 << (h & 63)
	s.rows[p].push(r)
}

// fold folds key partition p's rows of every batch, in order, into sa;
// the worker's rows arrive from ordinal first on.
func (s *keyScatter) fold(sa *SpillableAgg, p int, first int64) error {
	nparts, l := len(s.rows), &s.rows[p]
	lo := 0
	for j, b := range s.batches {
		hi := int(s.ends[j*nparts+p])
		// A batch's positions may straddle chunks: each piece folds on its
		// own, its rows' ordinals read off the batch.
		for lo < hi {
			c := lo / posChunk
			end := min(hi, (c+1)*posChunk)
			if err := sa.observe(b, l.chunks[c][lo-c*posChunk:end-c*posChunk], -1, first); err != nil {
				return err
			}
			lo = end
		}
		first += int64(b.Len())
	}
	return nil
}

// posList is one key partition's positions in one worker's batches,
// kept in fixed-size chunks: appending never copies, and the list holds
// at most one chunk of spare room.
type posList struct {
	chunks [][]int32
	n      int
}

const posChunk = 4096

func (l *posList) push(r int32) {
	if l.n%posChunk == 0 {
		l.chunks = append(l.chunks, make([]int32, 0, posChunk))
	}
	c := &l.chunks[len(l.chunks)-1]
	*c = append(*c, r)
	l.n++
}

// emitByOrd renders the key partitions' groups as one set of columns in
// ascending tag order: a group's tag (firstOrd) is the global ordinal of
// its first row, so that is the serial first-seen order. The tags are
// distinct ordinals below rows, so a bitmap of them merges the
// partitions by rank: a group's output position is the number of tags
// below its own. Every partition's groups then land at their positions,
// column by column.
func emitByOrd(parts []*PartialAgg, schema Schema, rows int64) ([]Vector, int) {
	set := make([]uint64, (rows+63)/64)
	for _, p := range parts {
		if p.Groups() > 0 {
			for _, o := range p.firstOrd() {
				set[o>>6] |= 1 << (o & 63)
			}
		}
	}
	below := make([]int32, len(set)) // tags in the words before
	n := 0
	for i, w := range set {
		below[i] = int32(n)
		n += bits.OnesCount64(w)
	}
	var srcs [][]Vector
	var at [][]int32
	for _, p := range parts {
		if p.Groups() == 0 {
			continue
		}
		pos := make([]int32, p.Groups())
		for g, o := range p.firstOrd() {
			pos[g] = below[o>>6] + int32(bits.OnesCount64(set[o>>6]&(1<<(o&63)-1)))
		}
		srcs, at = append(srcs, p.finalCols(schema)), append(at, pos)
	}
	cols := make([]Vector, len(schema))
	for c := range cols {
		cols[c] = scatterFrom(srcs, at, c, n)
	}
	return cols, n
}

// scatterFrom builds an n-element vector from column c of every source:
// source k's element i lands at at[k][i]. String cells stay coded when
// the sources share a Dict.
func scatterFrom(srcs [][]Vector, at [][]int32, c, n int) Vector {
	v := Vector{T: srcs[0][c].T}
	switch {
	case v.T == Int:
		v.Ints = make([]int64, n)
		for k, src := range srcs {
			scatterInto(v.Ints, src[c].Ints, at[k])
		}
	case v.T == Float:
		v.Floats = make([]float64, n)
		for k, src := range srcs {
			scatterInto(v.Floats, src[c].Floats, at[k])
		}
	default:
		if v.Dict = sharedDict(srcs, c); v.Dict != nil {
			v.Codes = make([]int32, n)
			for k, src := range srcs {
				scatterInto(v.Codes, src[c].Codes, at[k])
			}
			break
		}
		v.Strs = make([]string, n)
		for k, src := range srcs {
			for i, to := range at[k] {
				v.Strs[to] = src[c].Str(i)
			}
		}
	}
	return v
}

// scatterInto writes src[i] to dst[to[i]].
func scatterInto[T any](dst, src []T, to []int32) {
	for i, j := range to {
		dst[j] = src[i]
	}
}

// NextBatch implements BatchOp.
func (g *BatchGroupAgg) NextBatch() (*Batch, error) { return g.q.next(g.stat, g.build) }

// Stats implements BatchOp.
func (g *BatchGroupAgg) Stats() OpStats { return opStats(g.stat, g.disp, g.meter) }
