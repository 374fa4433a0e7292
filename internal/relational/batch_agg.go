package relational

import "repro/internal/exec"

// BatchGroupAgg is the morsel-parallel grouped aggregation: it statically
// partitions its child across workers, aggregates each partition into a
// private PartialAgg, and merges the partials in partition order. Static
// (contiguous-range) partitioning makes the merge order — and therefore
// the group emission order and float rounding — deterministic for a given
// worker count, and the emission order equals the serial engine's
// first-seen order. Partitions share a CancelToken: one failing partition
// stops its siblings at their next batch boundary.
type BatchGroupAgg struct {
	child     BatchOp
	groupCols []int
	aggs      []AggSpec
	schema    Schema
	workers   int
	disp      *exec.Dispatcher
	budget    *MemoryBudget
	meter     *spillMeter

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

// Place routes the partial-aggregation morsels through a heterogeneous
// device dispatcher (nil keeps the homogeneous engine). Each worker's
// per-batch partial update is one dispatched morsel; the dispatcher is
// shared across workers.
func (g *BatchGroupAgg) Place(d *exec.Dispatcher) { g.disp = d }

// SetBudget charges the per-worker group hash tables to a query memory
// budget; workers race for it and spill generations independently (nil
// keeps the unbudgeted engine, bit-identically).
func (g *BatchGroupAgg) SetBudget(b *MemoryBudget) {
	g.budget = b
	g.meter = newSpillMeter(b)
}

// build folds every partition into a private partial and merges them.
func (g *BatchGroupAgg) build() ([]*Batch, error) {
	// Every partition folds into a private partial.
	var sas []*SpillableAgg
	err := eachBatch(g.child, g.workers, func(n int) {
		for ; n > 0; n-- {
			sas = append(sas, NewSpillableAgg(g.groupCols, g.aggs, g.budget, g.meter))
		}
	}, func(i int, b *Batch) error {
		return g.disp.Run(b.Len(), func() error { return sas[i].ObserveBatch(b, -1) })
	})
	if err != nil {
		return nil, err
	}
	// Merge in partition order: partition i's rows precede partition
	// i+1's, so appending unseen groups in that order reproduces the
	// serial first-seen order.
	parts := make([]*PartialAgg, len(sas))
	for i, sa := range sas {
		parts[i] = sa.Finish()
	}
	cols, n := MergeAll(parts).EmitCols(g.schema, false)
	return windowBatches(g.schema, cols, n), nil
}

// NextBatch implements BatchOp.
func (g *BatchGroupAgg) NextBatch() (*Batch, error) { return g.q.next(g.stat, g.build) }

// Stats implements BatchOp.
func (g *BatchGroupAgg) Stats() OpStats { return opStats(g.stat, g.disp, g.meter) }
