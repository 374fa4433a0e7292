package relational

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// joinCore is the shared state of a batch hash join: the build-side table
// is constructed once (in parallel, from statically partitioned build
// streams concatenated in partition order, so per-key row chains match
// the serial engine's insertion order) and then probed concurrently by
// every probe partition.
type joinCore struct {
	// build is the build stream runBuild drains into tab; nil for a
	// prebuilt table (the distributed engine's, built from a moved build
	// side taken whole), which is adopted as is.
	build      BatchOp
	tab        *HashBuild
	probeCol   int
	schema     Schema
	buildWidth int
	workers    int

	budget *MemoryBudget
	meter  *spillMeter
	stat   *opCount // shared by every probe stream

	once sync.Once
	err  error

	// grace is non-nil when the build table overflowed the budget and
	// was hash-partitioned instead (see grace_join.go).
	grace  *graceNode
	leaves []*graceLeaf
}

func (c *joinCore) runBuild() {
	defer c.stat.builtSince(time.Now())
	if c.build != nil {
		cols, n, err := drainCols(c.build, c.workers)
		if err == nil {
			c.tab, err = NewHashBuildOf(c.tab.schema, c.tab.keyCol, cols, n)
		}
		if c.err = err; err != nil {
			return
		}
	}
	// The whole build table reserves against the query budget; when the
	// reservation fails the grace partitions it would have spilled are
	// priced instead. A prebuilt table reserves the same bytes, so a
	// budgeted distributed join spills exactly where a join building the
	// same table would.
	if c.budget != nil && !c.budget.Reserve(int64(c.tab.bytes)) {
		c.buildGrace()
	}
}

func (c *joinCore) table() error {
	c.once.Do(c.runBuild)
	return c.err
}

// BatchHashJoin is an inner equi-join over batches. The probe side drives
// the output; Partition exposes the probe side's partitions, all sharing
// the one build table.
type BatchHashJoin struct {
	core  *joinCore
	probe BatchOp

	// buf is this probe stream's match scratch.
	buf probeBuf
}

// NewBatchHashJoin joins build.buildCol == probe.probeCol using up to
// workers goroutines for the build phase (0 = NumCPU).
func NewBatchHashJoin(build, probe BatchOp, buildCol, probeCol, workers int) (*BatchHashJoin, error) {
	bs, ps := build.Schema(), probe.Schema()
	if buildCol < 0 || buildCol >= len(bs) {
		return nil, fmt.Errorf("relational: join build column %d out of range", buildCol)
	}
	if probeCol < 0 || probeCol >= len(ps) {
		return nil, fmt.Errorf("relational: join probe column %d out of range", probeCol)
	}
	tab, err := NewHashBuild(bs, buildCol)
	if err != nil {
		return nil, err
	}
	core := &joinCore{
		build: build, probeCol: probeCol, tab: tab,
		schema: bs.Concat(ps), buildWidth: len(bs),
		workers: EffectiveWorkers(workers), stat: &opCount{},
	}
	return &BatchHashJoin{core: core, probe: probe}, nil
}

// NewBatchHashJoinPrebuilt joins an externally constructed build table
// (see HashBuild) against probe.probeCol. The table must be fully
// appended before the first NextBatch; it may be shared read-only by
// several concurrent joins — the pipelined distributed path probes one
// incrementally-landed table from every shard at once.
func NewBatchHashJoinPrebuilt(pre *HashBuild, probe BatchOp, probeCol, workers int) (*BatchHashJoin, error) {
	ps := probe.Schema()
	if probeCol < 0 || probeCol >= len(ps) {
		return nil, fmt.Errorf("relational: join probe column %d out of range", probeCol)
	}
	core := &joinCore{
		tab: pre, probeCol: probeCol,
		schema: pre.schema.Concat(ps), buildWidth: len(pre.schema),
		workers: EffectiveWorkers(workers), stat: &opCount{},
	}
	return &BatchHashJoin{core: core, probe: probe}, nil
}

// Schema implements BatchOp.
func (j *BatchHashJoin) Schema() Schema { return j.core.schema }

// SetBudget points the join's build table at a query memory budget (nil
// keeps the unbudgeted engine, bit-identically). Call before the first
// NextBatch; partitions created later share it through the core.
func (j *BatchHashJoin) SetBudget(b *MemoryBudget) {
	j.core.budget = b
	j.core.meter = newSpillMeter(b)
}

// NextBatch implements BatchOp.
func (j *BatchHashJoin) NextBatch() (*Batch, error) {
	if err := j.core.table(); err != nil {
		return nil, err
	}
	for {
		b, err := j.probe.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		j.core.countProbe(b)
		if out := j.joinBatch(b); out != nil {
			j.core.stat.add(out.Len())
			return out, nil
		}
	}
}

// joinBatch joins one probe batch against the build table: the index
// yields (build row, probe row) selection vectors over the probe batch's
// selected rows. When every one of them matches at most once (the
// foreign-key join), the output keeps the probe vectors shared, selects
// the matched rows, and scatters each build column into a vector laid
// out like the probe batch; otherwise every output column is one gather.
// nil when no probe row matches.
func (j *BatchHashJoin) joinBatch(b *Batch) *Batch {
	c := j.core
	c.tab.ix.match(&b.Cols[c.probeCol], b.Sel, &j.buf)
	bsel, psel := j.buf.bsel, j.buf.psel
	if len(bsel) == 0 {
		return nil
	}
	// A unique build key matches each probe row at most once; a repeated
	// one may still do so within one batch.
	unique := c.tab.ix.unique()
	if !unique {
		unique = true
		for i := 1; unique && i < len(psel); i++ {
			unique = psel[i] > psel[i-1]
		}
	}
	out := &Batch{Schema: c.schema, Cols: make([]Vector, len(c.schema)), Seq: b.Seq, n: len(bsel)}
	if unique {
		out.n = b.n
		switch {
		case len(psel) == b.Len():
			out.Sel = b.Sel // every selected row matched: the same rows
		default:
			out.Sel = slices.Clone(psel)
		}
	}
	for col := range b.Cols {
		if unique {
			out.Cols[c.buildWidth+col] = b.Cols[col]
		} else {
			out.Cols[c.buildWidth+col] = GatherVector(&b.Cols[col], psel)
		}
	}
	for col := 0; col < c.buildWidth; col++ {
		// Matched keys are equal cells of one type, so an Int or String
		// build key is the probe key; a Float one is built from the
		// table, as every NaN matches every NaN but keeps its own bits.
		switch {
		case col == c.tab.keyCol && c.tab.cols[col].T != Float:
			out.Cols[col] = out.Cols[c.buildWidth+c.probeCol]
		case unique && out.Sel != nil:
			out.Cols[col] = scatterVector(&c.tab.cols[col], bsel, psel, b.n)
		default:
			out.Cols[col] = GatherVector(&c.tab.cols[col], bsel)
		}
	}
	return out
}

// Stats implements BatchOp.
func (j *BatchHashJoin) Stats() OpStats { return opStats(j.core.stat, nil, j.core.meter) }

// Partition implements Partitioner: probe partitions share the build
// table; output batches keep their probe-side Seq tags.
func (j *BatchHashJoin) Partition(n int) []BatchOp {
	p, ok := j.probe.(Partitioner)
	if !ok {
		return nil
	}
	parts := p.Partition(n)
	out := make([]BatchOp, len(parts))
	for i, pp := range parts {
		out[i] = &BatchHashJoin{core: j.core, probe: pp}
	}
	return out
}
