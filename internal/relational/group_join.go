package relational

import (
	"fmt"
	"slices"
)

// groupJoin is a grouped aggregation over an inner hash join whose group
// columns all come from the build side and whose arguments read only the
// probe side — the foreign-key join grouped by dimension attributes
// (Moerkotte & Neumann's groupjoin; the invisible join of Abadi et al.
// fetches dimension attributes by position the same way). Each build row
// gets its group's id once, after the table is built; then each worker
// matches its probe batches, computes the arguments over the matched rows
// and folds each one straight into the group its build row names. No
// build column is copied out, no group key is looked up per row, and no
// join batch is built. The workers fold their rows in the order the join →
// aggregate tree does and merge as its pre-aggregating path does, so the
// answer is that tree's, bit for bit, and every dispatcher sees the same
// morsels.
//
// The tree itself runs instead when the build key repeats (a row may
// match twice) and when the first morsel picks the key-partitioned path;
// it reuses the table and takes back the probe batches already pulled. A
// build table that went to grace partitions changes nothing here: the
// workers count their probe rows into the leaves as the join does.
type groupJoin struct {
	join *BatchHashJoin
	keys []int         // the build columns grouped by, in group column order
	args *BatchProject // the aggregate's argument columns over a probe batch
}

// GroupJoin lets the aggregation run as a group-join over j, the join
// feeding pre, the projection that feeds the aggregation. pre's leading
// columns are the group columns, passing through build columns keys;
// args computes pre's remaining columns, the aggregate arguments, from
// j's probe columns alone (their types must agree). args runs on pre's
// dispatcher. Call before the first NextBatch.
func (g *BatchGroupAgg) GroupJoin(j *BatchHashJoin, keys []int, pre *BatchProject, args []ProjExpr) error {
	if len(keys) == 0 || len(keys) != len(g.groupCols) {
		return fmt.Errorf("relational: group-join: %d group columns but %d keys", len(g.groupCols), len(keys))
	}
	for i, c := range g.groupCols {
		if c != i || keys[i] < 0 || keys[i] >= j.core.buildWidth {
			return fmt.Errorf("relational: group-join: group column %d is not build column %d", c, keys[i])
		}
	}
	ap, err := NewBatchProject(j.probe, pre.schema[len(keys):], args)
	if err != nil {
		return err
	}
	ap.stat, ap.disp = pre.stat, pre.disp
	g.gj = &groupJoin{join: j, keys: keys, args: ap}
	return nil
}

// gjWorker is one worker's share of a group-join.
type gjWorker struct {
	c      *joinCore
	g      *BatchGroupAgg
	groups []int32  // each build row's group
	keys   []Vector // the build columns grouped by
	buf    probeBuf
	args   *BatchProject // the worker's own, for its scratch
	sa     *SpillableAgg
	gmap   []int32  // build group → the partial's group id, -1 until seen
	in     []Vector // the aggregation's input: typed key stand-ins, then the arguments
	head   *Batch   // the first probe batch that matched, when pulled
}

// run aggregates by group-join; ok is false when the join → aggregate
// tree must run instead.
func (gj *groupJoin) run(g *BatchGroupAgg) (out []*Batch, ok bool, err error) {
	c := gj.join.core
	if err := c.table(); err != nil {
		return nil, true, err
	}
	if !c.tab.ix.unique() {
		return nil, false, nil
	}
	groups, ngroups := c.tab.groupIDs(gj.keys)
	ps := partitionOrSelf(gj.join.probe, g.workers)
	ws := make([]gjWorker, len(ps))
	stop := NewCancelToken()
	pulled := len(ps) > 1
	if pulled {
		err := Parallel(len(ps), stop, func(i int) error { return ws[i].pullHead(ps[i], c) })
		if err != nil {
			return nil, true, err
		}
		if i := slices.IndexFunc(ws, func(w gjWorker) bool { return w.head != nil }); i >= 0 && manyBuildGroups(ws[i].buf.bsel, groups, ngroups) {
			heads := make([]*Batch, len(ws))
			for i := range ws {
				heads[i] = ws[i].head
			}
			gj.join.probe = &pushedBack{BatchOp: gj.join.probe, parts: ps, heads: heads}
			return nil, false, nil
		}
	}
	keys := make([]Vector, len(gj.keys))
	for k, col := range gj.keys {
		keys[k] = c.tab.cols[col]
	}
	sas := make([]*SpillableAgg, len(ps))
	err = Parallel(len(ps), stop, func(i int) error {
		sas[i] = NewSpillableAgg(g.groupCols, g.aggs, g.budget, g.meter)
		w := &ws[i]
		w.c, w.g, w.groups, w.keys, w.sa = c, g, groups, keys, sas[i]
		w.args = &BatchProject{schema: gj.args.schema, exprs: gj.args.exprs, stat: gj.args.stat, disp: gj.args.disp}
		w.gmap = slices.Repeat([]int32{-1}, ngroups)
		w.in = make([]Vector, len(keys), len(keys)+len(gj.args.exprs))
		for k := range keys {
			w.in[k].T = keys[k].T
		}
		if err := w.presize(ngroups); err != nil {
			return err
		}
		return drain(ps[i], w.head, pulled, stop, w.fold)
	})
	if err != nil {
		return nil, true, err
	}
	return g.emitMerged(sas), true, nil
}

// presize types the worker's partial from the aggregation's input and
// makes room for all ngroups build groups at once, its keys coded as the
// build columns are: the worker's groups are build groups.
func (w *gjWorker) presize(ngroups int) error {
	in := slices.Clone(w.in)
	for _, c := range w.args.schema {
		in = append(in, Vector{T: c.Type})
	}
	p := w.sa.p
	if err := p.setTypes(in); err != nil {
		return err
	}
	for k := range w.keys {
		p.cols[k].Dict = w.keys[k].Dict
	}
	p.reserve(ngroups)
	return nil
}

// pullHead pulls probe batches until one matches a build row: the head
// the path rule reads, nil when none does. The batches before it are
// done with: their rows are counted into the grace leaves here.
func (w *gjWorker) pullHead(p BatchOp, c *joinCore) error {
	for {
		b, err := p.NextBatch()
		if err != nil || b == nil {
			return err
		}
		if c.tab.ix.match(&b.Cols[c.probeCol], b.Sel, &w.buf); len(w.buf.bsel) > 0 {
			w.head = b
			return nil
		}
		c.countProbe(b)
	}
}

// manyBuildGroups applies the aggregation's path rule to a head batch
// whose matched build rows are bsel: the join output has a row per match.
func manyBuildGroups(bsel, groups []int32, ngroups int) bool {
	seen := make([]bool, ngroups)
	n := 0
	for _, m := range bsel {
		if g := groups[m]; !seen[g] {
			seen[g] = true
			n++
		}
	}
	return n*manyGroupsRows >= len(bsel)
}

// fold counts probe batch b into the grace leaves as the join would, then
// joins it and folds its matched rows: the arguments are one projected
// morsel over them, and the fold one aggregation morsel. A group is new
// to the worker's partial at its first matched row, keyed by that row's
// build row and tagged with the row's ordinal, as the tree would tag it.
func (w *gjWorker) fold(b *Batch) error {
	w.c.countProbe(b)
	w.c.tab.ix.match(&b.Cols[w.c.probeCol], b.Sel, &w.buf)
	bsel, psel := w.buf.bsel, w.buf.psel
	if len(bsel) == 0 {
		return nil
	}
	w.c.stat.add(len(bsel))
	sel := psel
	if len(psel) == b.Len() {
		sel = b.Sel // every selected row matched: the same rows
	}
	ab, err := w.args.apply(&Batch{Schema: b.Schema, Cols: b.Cols, Seq: b.Seq, Sel: sel, n: b.n})
	if err != nil {
		return err
	}
	defer w.args.recycle(ab.Cols)
	ab.Cols = append(w.in[:len(w.keys)], ab.Cols...)
	return w.g.disp.Run(len(bsel), func() error {
		p := w.sa.p
		gids, err := p.prepare(ab, sel)
		if err != nil {
			return err
		}
		first := p.ord
		for i, m := range bsel {
			id := &w.gmap[w.groups[m]]
			if *id < 0 {
				*id = int32(p.Groups())
				ord := first + int64(i)
				p.newGroup(w.keys, int(m), ab, int(psel[i]), ord, ord)
			}
			gids[i] = *id
		}
		p.fold(ab, sel)
		w.sa.charge()
		return nil
	})
}

// groupIDs numbers the distinct tuples of the build columns keys in build
// row order, under the aggregation's key equality: ids[r] is row r's. One
// coded column's codes name its groups, as a Dict's entries are distinct.
func (h *HashBuild) groupIDs(keys []int) (ids []int32, n int) {
	ids = make([]int32, h.Len())
	if c := &h.cols[keys[0]]; len(keys) == 1 && c.Dict != nil {
		byCode := make([]int32, c.Dict.Len()) // id+1, 0 until seen
		for r, code := range c.Codes[:len(ids)] {
			if byCode[code] == 0 {
				n++
				byCode[code] = int32(n)
			}
			ids[r] = byCode[code] - 1
		}
		return ids, n
	}
	kc := make([]Vector, len(keys))
	for i, k := range keys {
		kc[i] = h.cols[k]
	}
	var ix keyIndex
	for r := range ids {
		g, fresh := ix.getOrPut(kc, r, int32(n))
		if ids[r] = g; fresh {
			n++
		}
	}
	return ids, n
}

// pushedBack is a partitioned stream whose partitions' leading batches
// were pulled already: each partition hands its pulled batch out again
// first. Partition returns the partitions as they were cut.
type pushedBack struct {
	BatchOp
	parts []BatchOp
	heads []*Batch
}

// Partition implements Partitioner.
func (p *pushedBack) Partition(int) []BatchOp {
	out := make([]BatchOp, len(p.parts))
	for i, part := range p.parts {
		out[i] = &headFirst{BatchOp: part, head: p.heads[i]}
	}
	return out
}

// headFirst hands out head, then the rest of its stream.
type headFirst struct {
	BatchOp
	head *Batch
}

// NextBatch implements BatchOp.
func (h *headFirst) NextBatch() (*Batch, error) {
	if b := h.head; b != nil {
		h.head = nil
		return b, nil
	}
	return h.BatchOp.NextBatch()
}
