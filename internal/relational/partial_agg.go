package relational

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/kernels"
)

// PartialAgg is one participant's share of a grouped aggregation: groups
// get dense ids in first-seen order, everything known about them lives in
// typed vectors indexed by id (struct-of-arrays), and a typed keyIndex
// finds a row's id — so a batch folds in column-at-a-time without a Value
// or Row per input row. Both parallelism layers use it. The
// morsel-parallel BatchGroupAgg either folds each key partition whole
// into one partial — every group built once, its rows in serial order,
// tagged with the global ordinal of its first row — or, when there are
// few groups, merges per-worker partials in partition order. The
// distributed engine ships per-shard partials to the coordinator and
// merges them in global first-seen (seq) order, so the distributed group
// emission order is row-for-row identical to the single-node engine's.
// Group state is value-typed, so MergeFrom copies: a partial may be
// merged into any number of accumulators.
type PartialAgg struct {
	groupCols []int
	aggs      []AggSpec

	// cols holds one element per group in every vector: the key columns,
	// then the row count (every aggregate counts the same rows), firstSeq
	// and firstOrd, then each aggregate's state vectors (see aggSlot).
	// firstSeq is the smallest seq tag a group was observed at (the
	// arrival ordinal when no seq column is fed); firstOrd breaks firstSeq
	// ties by arrival order, which is only needed when several output rows
	// share a seq tag (join fan-out) — those rows always live in the same
	// partial, so ordinals stay comparable. The vectors are typed from the
	// first batch (or the first merged partial); nil until then.
	cols  []Vector
	slots []aggSlot

	// index covers groups [0, indexed); partials assembled by appending
	// groups (splits, clones) index lazily, when first merged into.
	index   keyIndex
	indexed int

	ord int64 // arrival counter (rows observed)

	gids []int32  // per-batch scratch: each row's group id (SpillableAgg meters it)
	kc   []Vector // per-batch scratch: the batch's key columns, cleared after
}

// aggSlot locates one aggregate's state in cols. SUM keeps one vector at
// `at` — Int over an Int column, else Float — and so does AVG (Float);
// MIN and MAX keep both extremes, typed as the input column, at `at` and
// `at`+1 (both, because the wire size of a partial counts both); COUNT
// keeps nothing beyond the shared row count.
type aggSlot struct {
	kind aggKind
	at   int
}

type aggKind uint8

const (
	aggCountOnly aggKind = iota
	aggSum
	aggMinMax
)

// NewPartialAgg returns an empty partial for the given group columns and
// aggregate specs (column indexes refer to the rows fed to ObserveBatch).
func NewPartialAgg(groupCols []int, aggs []AggSpec) *PartialAgg {
	return &PartialAgg{groupCols: groupCols, aggs: aggs}
}

func (p *PartialAgg) keys() []Vector    { return p.cols[:len(p.groupCols)] }
func (p *PartialAgg) count() []int64    { return p.cols[len(p.groupCols)].Ints }
func (p *PartialAgg) firstSeq() []int64 { return p.cols[len(p.groupCols)+1].Ints }
func (p *PartialAgg) firstOrd() []int64 { return p.cols[len(p.groupCols)+2].Ints }

// Groups returns the number of distinct groups observed.
func (p *PartialAgg) Groups() int {
	if p.cols == nil {
		return 0
	}
	return len(p.count())
}

// Rows returns the number of input rows observed.
func (p *PartialAgg) Rows() int64 { return p.ord }

// aggStateBytes is the modeled size of one aggregate's per-group state:
// count, two sums, and min/max slots. A group's state is its key row's
// encoded bytes plus aggStateBytes per aggregate.
const aggStateBytes = 40

// setTypes lays out and types cols from the input columns.
func (p *PartialAgg) setTypes(in []Vector) error {
	for _, c := range p.groupCols {
		p.cols = append(p.cols, Vector{T: in[c].T})
	}
	p.cols = append(p.cols, Vector{T: Int}, Vector{T: Int}, Vector{T: Int})
	p.slots = make([]aggSlot, len(p.aggs))
	for i, a := range p.aggs {
		if a.Fn == CountAgg {
			continue
		}
		t := in[a.Col].T
		p.slots[i].at = len(p.cols)
		switch {
		case a.Fn == MinAgg || a.Fn == MaxAgg:
			p.slots[i].kind = aggMinMax
			p.cols = append(p.cols, Vector{T: t}, Vector{T: t})
		case t == String:
			p.cols = nil
			return fmt.Errorf("relational: %s over non-numeric column", a.Fn)
		default:
			p.slots[i].kind = aggSum
			if a.Fn == AvgAgg {
				t = Float
			}
			p.cols = append(p.cols, Vector{T: t})
		}
	}
	return nil
}

// presize types an empty partial from the input columns and makes room
// for n groups (none when n <= 0) in its state vectors and its index.
// span, when non-nil, bounds the values of one Int key column: the index
// takes the layout for n keys over it at once — a direct window when it
// fits, hashed otherwise — instead of widening windows key by key. One
// Int key without a span, or one Float key, lays out hashed.
func (p *PartialAgg) presize(in []Vector, n int, span *[2]int64) error {
	if err := p.setTypes(in); err != nil {
		return err
	}
	n = max(n, 0)
	switch kc := p.keys(); {
	case len(kc) == 1 && kc[0].T == Int && span != nil:
		p.index.ints.reserveSpan(n, span[0], span[1])
	case len(kc) == 1 && kc[0].T != String:
		p.index.ints.reserveHashed(n)
	case n > 0:
		p.index.reserve(kc, n)
	}
	if n > 0 {
		p.reserve(n)
	}
	return nil
}

// emptyLike returns an empty partial laid out and typed like p.
func (p *PartialAgg) emptyLike() *PartialAgg {
	q := NewPartialAgg(p.groupCols, p.aggs)
	if p.cols != nil {
		q.slots = p.slots
		q.cols = make([]Vector, len(p.cols))
		for i := range p.cols {
			q.cols[i].T = p.cols[i].T
		}
	}
	return q
}

// ensureIndexed brings appended-but-unindexed groups into the lookup.
func (p *PartialAgg) ensureIndexed() {
	if p.indexed < p.Groups() {
		p.index.reserve(p.keys(), p.Groups())
	}
	for ; p.indexed < p.Groups(); p.indexed++ {
		p.index.getOrPut(p.keys(), p.indexed, int32(p.indexed))
	}
}

// reserve makes room for n more groups, at least doubling every vector
// together when they are short: append's own 1.25x steps on large slices
// would re-copy the whole state five times over while a partial grows.
func (p *PartialAgg) reserve(n int) {
	if have := len(p.count()); have+n > cap(p.count()) {
		for c := range p.cols {
			p.cols[c].grow(max(have, n))
		}
	}
}

// appendGroup adds group i of o (keys, tags and whole state) as p's next
// group. The caller has already entered it in the index, or leaves
// indexing to ensureIndexed.
func (p *PartialAgg) appendGroup(o *PartialAgg, i int) {
	p.reserve(1)
	for c := range p.cols {
		p.cols[c].appendCell(&o.cols[c], i)
	}
}

// ObserveBatch folds one batch into the partial. seqCol >= 0 names an Int
// column carrying each row's global sequence tag (used for first-seen
// ordering across partials); seqCol < 0 falls back to the arrival ordinal,
// which reproduces first-seen order within this partial alone. A selected
// batch folds its selected rows in place.
func (p *PartialAgg) ObserveBatch(b *Batch, seqCol int) error {
	return p.observe(b, b.Sel, seqCol, p.ord)
}

// observe folds the rows sel picks of b's vectors (every row when sel is
// nil), in order, and leaves each one's group id in gids. sel is b's own
// selection or a subset of it — the rows a key partition owns. b's Len
// rows arrive from ordinal first on, so a row's ordinal is first plus its
// place among them, and a group's firstOrd is its first row's.
func (p *PartialAgg) observe(b *Batch, sel []int32, seqCol int, first int64) error {
	gids, err := p.prepare(b, sel)
	if err != nil {
		return err
	}
	kc := p.kc[:0]
	for _, c := range p.groupCols {
		kc = append(kc, b.Cols[c])
	}
	p.kc = kc
	p.ensureIndexed()

	// Pass 1: every row's dense group id, creating groups in row order —
	// which is first-seen order.
	switch {
	case len(kc) == 0:
		if p.Groups() == 0 {
			p.index.getOrPut(kc, 0, 0)
			r := 0
			if len(sel) > 0 {
				r = int(sel[0])
			}
			p.newSeenGroup(b, kc, r, first, seqCol)
		}
		clear(gids)
	case sel != nil:
		next := int32(p.Groups()) // the id a new group takes
		for i, r := range sel {
			g, fresh := p.index.getOrPut(kc, int(r), next)
			if gids[i] = g; fresh {
				p.newSeenGroup(b, kc, int(r), first, seqCol)
				next++
			}
		}
	default:
		next := int32(p.Groups())
		for r := range gids {
			g, fresh := p.index.getOrPut(kc, r, next)
			if gids[r] = g; fresh {
				p.newSeenGroup(b, kc, r, first, seqCol)
				next++
			}
		}
	}
	clear(kc) // pins no batch
	p.fold(b, sel)
	return nil
}

// prepare types the partial from b's columns when it has seen nothing
// yet and returns gids sized for the rows sel picks of b (every row when
// sel is nil).
func (p *PartialAgg) prepare(b *Batch, sel []int32) ([]int32, error) {
	if p.cols == nil {
		if err := p.setTypes(b.Cols); err != nil {
			return nil, err
		}
	}
	n := b.n
	if sel != nil {
		n = len(sel)
	}
	if cap(p.gids) < n {
		p.gids = make([]int32, n)
	}
	p.gids = p.gids[:n]
	return p.gids, nil
}

// fold is observe's pass 2: it folds the rows sel picks of b into the
// groups gids names, one typed loop per aggregate. Within a group rows
// are visited in arrival order, so float sums fold exactly as a
// row-at-a-time loop would.
func (p *PartialAgg) fold(b *Batch, sel []int32) {
	gids, count := p.gids, p.count()
	for _, g := range gids {
		count[g]++
	}
	for i, sl := range p.slots {
		if sl.kind == aggCountOnly {
			continue
		}
		col, st := &b.Cols[p.aggs[i].Col], &p.cols[sl.at]
		switch {
		case sl.kind == aggMinMax:
			observeExtremes(st, &p.cols[sl.at+1], col, gids, sel)
		case sel != nil:
			sumSelected(st, col, gids, sel)
		case st.T == Int:
			for r, g := range gids {
				st.Ints[g] += col.Ints[r]
			}
		case col.T == Int:
			for r, g := range gids {
				st.Floats[g] += float64(col.Ints[r])
			}
		default:
			for r, g := range gids {
				st.Floats[g] += col.Floats[r]
			}
		}
	}
	p.ord += int64(len(gids))
}

// sumSelected folds the selected cells of col, row i's at sel[i], into
// the per-group sums st.
func sumSelected(st, col *Vector, gids, sel []int32) {
	switch {
	case st.T == Int:
		for i, g := range gids {
			st.Ints[g] += col.Ints[sel[i]]
		}
	case col.T == Int:
		for i, g := range gids {
			st.Floats[g] += float64(col.Ints[sel[i]])
		}
	default:
		for i, g := range gids {
			st.Floats[g] += col.Floats[sel[i]]
		}
	}
}

// newSeenGroup enters the group first seen at vector position r of b
// (already entered in the index), whose Len rows arrive from ordinal
// first on. A selected batch's rows are its ascending Sel, so r's place
// among them is a binary search.
func (p *PartialAgg) newSeenGroup(b *Batch, kc []Vector, r int, first int64, seqCol int) {
	ord := first + int64(r)
	if b.Sel != nil {
		i, _ := slices.BinarySearch(b.Sel, int32(r))
		ord = first + int64(i)
	}
	seq := ord
	if seqCol >= 0 {
		seq = b.Cols[seqCol].Ints[r]
	}
	p.newGroup(kc, r, b, r, seq, ord)
	p.indexed++
}

// newGroup appends a group keyed by row kr of the key columns kc, tagged
// (seq, ord), whose first row sits at vector position r of b: zero count
// and sums, and the row itself as both extremes. The caller enters it in
// the index, or leaves that to ensureIndexed.
func (p *PartialAgg) newGroup(kc []Vector, kr int, b *Batch, r int, seq, ord int64) {
	p.reserve(1)
	nk := len(kc)
	for c := range kc {
		p.cols[c].appendCell(&kc[c], kr)
	}
	p.cols[nk].Ints = append(p.cols[nk].Ints, 0)
	p.cols[nk+1].Ints = append(p.cols[nk+1].Ints, seq)
	p.cols[nk+2].Ints = append(p.cols[nk+2].Ints, ord)
	for i, sl := range p.slots {
		switch sl.kind {
		case aggSum:
			p.cols[sl.at].Append(Value{})
		case aggMinMax:
			p.cols[sl.at].appendCell(&b.Cols[p.aggs[i].Col], r)
			p.cols[sl.at+1].appendCell(&b.Cols[p.aggs[i].Col], r)
		}
	}
}

// observeExtremes folds a column into the per-group MIN and MAX: row i
// of gids reads col at sel[i], or at i when sel is nil. Floats fold in
// IEEE 754 total order (see cmpExtreme).
func observeExtremes(lo, hi, col *Vector, gids, sel []int32) {
	switch col.T {
	case Int:
		extremes(lo.Ints, hi.Ints, col.Ints, gids, sel)
	case Float:
		floatExtremes(lo.Floats, hi.Floats, col.Floats, gids, sel)
	default:
		for i, g := range gids {
			r := i
			if sel != nil {
				r = int(sel[i])
			}
			if v := col.Str(r); v < lo.Str(int(g)) {
				lo.setCell(int(g), col, r)
			} else if v > hi.Str(int(g)) {
				hi.setCell(int(g), col, r)
			}
		}
	}
}

// extremes is observeExtremes over an Int payload.
func extremes(lo, hi, col []int64, gids, sel []int32) {
	for i, g := range gids {
		r := int32(i)
		if sel != nil {
			r = sel[i]
		}
		if v := col[r]; v < lo[g] {
			lo[g] = v
		} else if v > hi[g] {
			hi[g] = v
		}
	}
}

// floatExtremes is observeExtremes over a Float payload, in total order.
func floatExtremes(lo, hi, col []float64, gids, sel []int32) {
	for i, g := range gids {
		r := int32(i)
		if sel != nil {
			r = sel[i]
		}
		if v, k := col[r], kernels.TotalOrderKeyFloat64(col[r]); k < kernels.TotalOrderKeyFloat64(lo[g]) {
			lo[g] = v
		} else if k > kernels.TotalOrderKeyFloat64(hi[g]) {
			hi[g] = v
		}
	}
}

// Clone copies the partial (group keys, tags and states) so the copy can
// keep observing while the original is read.
func (p *PartialAgg) Clone() *PartialAgg {
	q := p.emptyLike()
	q.ord = p.ord
	for c := range p.cols {
		q.cols[c] = p.cols[c].clone()
	}
	return q
}

// MergeFrom folds a later partial into p: shared groups merge their
// states (and keep the lexicographically smallest (firstSeq, firstOrd));
// unseen groups append, as copies, in o's first-seen order. Folding
// partials in partition order therefore reproduces the serial first-seen
// order when partition i's rows precede partition i+1's. o is only read.
func (p *PartialAgg) MergeFrom(o *PartialAgg) {
	p.ord += o.ord
	if o.cols == nil {
		return
	}
	if p.cols == nil {
		// p has seen nothing yet: take o's layout and column types.
		e := o.emptyLike()
		p.cols, p.slots = e.cols, e.slots
	}
	p.ensureIndexed()
	okeys := o.keys()
	for i := range o.Groups() {
		g, fresh := p.index.getOrPut(okeys, i, int32(len(p.count())))
		if fresh {
			p.appendGroup(o, i)
			p.indexed++
			continue
		}
		p.foldGroup(int(g), o, i)
	}
}

// MergeAll returns the merge of parts in order: the partial MergeFrom-ing
// parts[1:] into parts[0] one by one would leave — the same groups in the
// same order, with bit-identical states — built without growing any of
// them. Each group's state folds into the partial that saw it first,
// found through parts[0]'s lookup or, for a group parts[0] lacks, one
// lookup over the later partials' first-seen groups; the result is then
// assembled once, at its final size, from every partial's first-seen
// groups. The parts are consumed: their states are folded into, and the
// result may be one of them.
func MergeAll(parts []*PartialAgg) *PartialAgg {
	var live []*PartialAgg
	var ord int64
	for _, p := range parts {
		ord += p.ord
		if p.Groups() > 0 {
			live = append(live, p)
		}
	}
	if len(live) <= 1 {
		out := parts[0]
		if len(live) == 1 {
			out = live[0]
		}
		out.ord = ord
		return out
	}
	first := live[0]
	first.ensureIndexed()
	// later indexes the groups first seen after first, as refs into
	// owners/ownerGroup; the last partial's need no entry, so it holds at
	// most the middle partials' groups.
	var later keyIndex
	if mid := live[1 : len(live)-1]; len(mid) > 0 {
		bound := 0
		for _, o := range mid {
			bound += o.Groups()
		}
		later.reserve(first.keys(), bound)
	}
	var owners []*PartialAgg
	var ownerGroup []int
	owned := make([][]int32, len(live))
	n := first.Groups()
	for k, o := range live[1:] {
		keys, last := o.keys(), k+2 == len(live)
		for i := range o.Groups() {
			if g := first.index.find(keys, i); g >= 0 {
				first.foldGroup(int(g), o, i)
			} else if x := later.find(keys, i); x >= 0 {
				owners[x].foldGroup(ownerGroup[x], o, i)
			} else {
				owned[k+1] = append(owned[k+1], int32(i))
				if !last {
					later.getOrPut(keys, i, int32(len(owners)))
					owners, ownerGroup = append(owners, o), append(ownerGroup, i)
				}
			}
		}
		n += len(owned[k+1])
	}
	out := first.emptyLike()
	out.ord = ord
	sources := make([][]Vector, len(live))
	for k, o := range live {
		sources[k] = o.cols
	}
	for c := range out.cols {
		out.cols[c] = newColumn(out.cols[c].T, n, sources, c)
		out.cols[c].AppendRange(&first.cols[c], 0, first.Groups())
		for k, sel := range owned[1:] {
			out.cols[c].AppendGather(&live[k+1].cols[c], sel)
		}
	}
	return out
}

// foldGroup folds group i of o into p's group g: the counts and states
// combine, and g keeps the smaller (firstSeq, firstOrd) tag.
func (p *PartialAgg) foldGroup(g int, o *PartialAgg, i int) {
	p.count()[g] += o.count()[i]
	for _, sl := range p.slots {
		st, os := &p.cols[sl.at], &o.cols[sl.at]
		switch {
		case sl.kind == aggSum && st.T == Int:
			st.Ints[g] += os.Ints[i]
		case sl.kind == aggSum:
			st.Floats[g] += os.Floats[i]
		case sl.kind == aggMinMax:
			if cmpExtreme(os, i, st, g) < 0 {
				st.setCell(g, os, i)
			}
			if hi, ohi := &p.cols[sl.at+1], &o.cols[sl.at+1]; cmpExtreme(ohi, i, hi, g) > 0 {
				hi.setCell(g, ohi, i)
			}
		}
	}
	seq, ord, oseq, oord := p.firstSeq(), p.firstOrd(), o.firstSeq(), o.firstOrd()
	if oseq[i] < seq[g] || (oseq[i] == seq[g] && oord[i] < ord[g]) {
		seq[g], ord[g] = oseq[i], oord[i]
	}
}

// cmpExtreme orders a[i] against b[j] as MIN and MAX fold them: Floats
// in IEEE 754 total order — the ORDER BY order, a NaN beyond ±Inf by its
// sign, except that -0 sorts below +0 — so that every fold of one group's
// values, in any order and split, picks the same cell; other types as
// cmpCell does.
func cmpExtreme(a *Vector, i int, b *Vector, j int) int {
	if a.T == Float {
		return cmp.Compare(kernels.TotalOrderKeyFloat64(a.Floats[i]), kernels.TotalOrderKeyFloat64(b.Floats[j]))
	}
	return cmpCell(a, i, b, j)
}

// seqOrder returns the group ids in ascending (firstSeq, firstOrd) order,
// or nil when the ids already are — as on any partial built sequentially.
// The order comes from stable radix passes over the tags (sortPerm), not
// a comparison sort: one pass over firstSeq, and only when two groups
// share a seq tag (join fan-out) the two-key sort that firstOrd decides.
func (p *PartialAgg) seqOrder() []int32 {
	seq, ord := p.firstSeq(), p.firstOrd()
	sorted := true
	for g := 1; g < len(seq) && sorted; g++ {
		sorted = seq[g-1] < seq[g] || (seq[g-1] == seq[g] && ord[g-1] <= ord[g])
	}
	if sorted {
		return nil
	}
	tags := p.cols[len(p.groupCols)+1 : len(p.groupCols)+3]
	perm, enc := sortPerm(tags, []SortKey{{Col: 0}}, len(seq))
	for g := 1; g < len(enc); g++ {
		if enc[g-1] == enc[g] {
			perm, _ = sortPerm(tags, []SortKey{{Col: 0}, {Col: 1}}, len(seq))
			break
		}
	}
	return perm
}

// EmitCols renders the final aggregate as columns: group keys then one
// column per aggregate (schema, the output schema groupAggSchema derives,
// types the columns of an empty result). When bySeq is true groups emit
// in ascending (firstSeq, firstOrd) order — the global first-seen order
// when seq tags were fed — otherwise in this partial's first-seen order.
// A global aggregate over empty input still yields one row of zeros,
// matching both engines. The vectors may share the partial's storage:
// treat both as immutable afterwards.
func (p *PartialAgg) EmitCols(schema Schema, bySeq bool) (cols []Vector, n int) {
	if n = p.Groups(); n == 0 {
		cols = make([]Vector, len(schema))
		for i, c := range schema {
			cols[i].T = c.Type
			if len(p.groupCols) == 0 {
				cols[i].Append(zeroValue(c.Type))
				n = 1
			}
		}
		return cols, n
	}
	cols = p.finalCols(schema)
	if bySeq {
		p.gatherSeqOrder(cols)
	}
	return cols, n
}

// EmitSeqCols renders the final groups as EmitCols(schema, true) does and
// appends each group's firstSeq as a trailing Int column: a partial whose
// groups no other partial holds emits them as a seq-ascending stream, which
// a seq merge of such streams interleaves into the global first-seen order.
// An empty partial emits no row, even for a global aggregate (whose one
// group spans every partial, so it never emits this way).
func (p *PartialAgg) EmitSeqCols(schema Schema) (cols []Vector, n int) {
	if n = p.Groups(); n == 0 {
		cols = make([]Vector, len(schema)+1)
		for i, c := range schema {
			cols[i].T = c.Type
		}
		cols[len(schema)].T = Int
		return cols, 0
	}
	cols = append(p.finalCols(schema), Vector{T: Int, Ints: p.firstSeq()})
	p.gatherSeqOrder(cols)
	return cols, n
}

// finalCols renders the groups of a non-empty partial, in id order, as the
// key columns then one column per aggregate. The vectors may share the
// partial's storage.
func (p *PartialAgg) finalCols(schema Schema) []Vector {
	n := p.Groups()
	cols := make([]Vector, len(schema))
	nk := copy(cols, p.keys())
	for i, a := range p.aggs {
		st := p.cols[p.slots[i].at]
		switch a.Fn {
		case CountAgg:
			st = p.cols[nk]
		case AvgAgg:
			avg := make([]float64, n)
			for g, c := range p.count() {
				avg[g] = st.Floats[g] / float64(c)
			}
			st = Vector{T: Float, Floats: avg}
		case MaxAgg:
			st = p.cols[p.slots[i].at+1]
		}
		cols[nk+i] = st
	}
	return cols
}

// gatherSeqOrder reorders columns rendered from p's groups into ascending
// (firstSeq, firstOrd) order, in place; columns already in it stay as
// they are.
func (p *PartialAgg) gatherSeqOrder(cols []Vector) {
	if perm := p.seqOrder(); perm != nil {
		for i := range cols {
			cols[i] = GatherVector(&cols[i], perm)
		}
	}
}

// SplitChunks slices the partial into sub-partials of at most maxGroups
// groups each, in this partial's first-seen order: index ranges over the
// dense group ids, sharing the original's storage (read-only). The
// distributed gather sizes its charge with them — one chunk per
// generation — and the coordinator then merges the shards' partials
// whole. Merging the subs back in order via MergeFrom reconstructs this
// partial exactly — same states, same order, same ord: the first sub
// carries the whole arrival count (ord is a partial-level counter, not a
// per-group one), so the counts sum correctly. maxGroups <= 0, or a
// partial that fits one chunk, returns []{p} itself.
func (p *PartialAgg) SplitChunks(maxGroups int) []*PartialAgg {
	n := p.Groups()
	if maxGroups <= 0 || n <= maxGroups {
		return []*PartialAgg{p}
	}
	var subs []*PartialAgg
	for lo := 0; lo < n; lo += maxGroups {
		hi := min(lo+maxGroups, n)
		sub := p.emptyLike()
		for c := range p.cols {
			sub.cols[c] = p.cols[c].Slice(lo, hi)
		}
		if lo == 0 {
			sub.ord = p.ord
		}
		subs = append(subs, sub)
	}
	return subs
}

// EncodedBytes returns the serialized size of the partial — what a shard
// ships to the coordinator in the distributed final-merge phase: each
// group's key plus, per aggregate, the fixed state (count, two sums) and
// the min/max slots (8 bytes each unless they hold strings).
func (p *PartialAgg) EncodedBytes() float64 {
	n := p.Groups()
	if n == 0 {
		return 0
	}
	total := NewRowSizer(p.keys()).RangeBytes(0, n) + n*len(p.aggs)*aggStateBytes
	for _, sl := range p.slots {
		if sl.kind == aggMinMax && p.cols[sl.at].T == String {
			// Two strings in place of the 16 bytes aggStateBytes counts.
			total += NewRowSizer(p.cols[sl.at:sl.at+2]).RangeBytes(0, n) - (rowOverheadBytes+16)*n
		}
	}
	return float64(total)
}
