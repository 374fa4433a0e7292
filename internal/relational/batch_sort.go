package relational

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/exec"
	"repro/internal/kernels"
)

// BatchSort materializes its child (in parallel when the child can
// partition) as whole typed columns and sorts a row-id permutation over
// them: every Int or Float key is encoded to an order-preserving uint64
// and radix-sorted (kernels.SortPairsByKey), least significant key first;
// a String key's pass is a stable comparison sort on the typed vector.
// Each pass is stable, so rows tied on every key keep arrival order —
// exactly the serial engine's sort.SliceStable — and one final gather
// per column produces the output. No Row or Value is built.
type BatchSort struct {
	child   BatchOp
	keys    []SortKey
	workers int
	disp    *exec.Dispatcher
	budget  *MemoryBudget
	meter   *spillMeter
	// limit >= 0 keeps only the first limit rows of the order (see
	// NewBatchTopK); -1 is the full sort.
	limit int

	out  []*Batch
	pos  int
	done bool
	stat *opCount
}

// NewBatchSort returns a sort over child using up to workers goroutines
// to drain it (0 = NumCPU).
func NewBatchSort(child BatchOp, keys []SortKey, workers int) (*BatchSort, error) {
	cs := child.Schema()
	for _, k := range keys {
		if k.Col < 0 || k.Col >= len(cs) {
			return nil, fmt.Errorf("relational: sort column %d out of range", k.Col)
		}
	}
	return &BatchSort{child: child, keys: keys, workers: EffectiveWorkers(workers), limit: -1, stat: &opCount{}}, nil
}

// Schema implements BatchOp.
func (s *BatchSort) Schema() Schema { return s.child.Schema() }

// Place routes the sort kernel through a heterogeneous device
// dispatcher (nil keeps the homogeneous engine). A sort is a pipeline
// breaker, so it dispatches once, as a single whole-input morsel.
func (s *BatchSort) Place(d *exec.Dispatcher) { s.disp = d }

// SetBudget charges the sort's materialized rows to a query memory
// budget: on overflow the accumulated chunk becomes a sorted run spilled
// to the tier, and the final pass k-way merges the runs (nil keeps the
// unbudgeted engine, bit-identically).
func (s *BatchSort) SetBudget(b *MemoryBudget) {
	s.budget = b
	s.meter = newSpillMeter(b)
}

func (s *BatchSort) materialize() error {
	if s.limit >= 0 && s.budget == nil {
		return s.topK()
	}
	schema := s.child.Schema()
	cols, n, err := drainCols(s.child, s.workers)
	if err != nil {
		return err
	}
	var perm []int32
	if s.budget != nil {
		if perm, err = s.externalSort(cols, n); err != nil {
			return err
		}
	} else if err := s.disp.Run(n, func() error {
		perm = sortPerm(cols, s.keys, 0, n)
		return nil
	}); err != nil {
		return err
	}
	if s.limit >= 0 && s.limit < len(perm) {
		perm = perm[:s.limit]
	}
	s.emit(schema, cols, perm)
	return nil
}

// emit gathers the rows perm selects, in order, into the output batches.
func (s *BatchSort) emit(schema Schema, cols []Vector, perm []int32) {
	for c := range cols {
		cols[c] = GatherVector(&cols[c], perm)
	}
	s.out = windowBatches(schema, cols, len(perm))
}

// sortRun is one sorted run of the external sort: a permutation of a
// contiguous arrival range of the input.
type sortRun struct {
	perm    []int32
	bytes   int64
	spilled bool
}

// externalSort is the budgeted path: rows accumulate into a chunk that
// reserves budget bytes; when a reservation fails the chunk is sorted,
// priced as a run written to the spill tier, and released. The final
// chunk stays resident (hybrid — no write for state that fit), and a
// k-way merge folds the runs back, pricing the spilled ones' read-back.
// With no overflow this is one chunk sorted once: exactly the in-memory
// sort, so a generous budget is row-for-row (and dispatch-for-dispatch)
// identical to the unbudgeted engine. The budget is an accounting arena:
// runs are ranges of the one columnar copy, never a second one.
func (s *BatchSort) externalSort(cols []Vector, n int) ([]int32, error) {
	var runs []sortRun
	var chunkBytes, reserved int64
	lo := 0
	flushRun := func(hi int, spill bool) error {
		if hi == lo {
			return nil
		}
		var perm []int32
		if err := s.disp.Run(hi-lo, func() error {
			perm = sortPerm(cols, s.keys, lo, hi)
			return nil
		}); err != nil {
			return err
		}
		if spill {
			s.meter.notePartition(1)
			s.meter.chargeWrite(chunkBytes)
		}
		s.budget.Release(reserved)
		runs = append(runs, sortRun{perm: perm, bytes: chunkBytes, spilled: spill})
		lo, chunkBytes, reserved = hi, 0, 0
		return nil
	}
	for r := 0; r < n; r++ {
		rb := int64(rowBytes(cols, r))
		if s.budget.Reserve(rb) {
			reserved += rb
		} else if r > lo {
			if err := flushRun(r, true); err != nil {
				return nil, err
			}
			if s.budget.Reserve(rb) {
				reserved += rb
			}
			// A row that alone exceeds the budget proceeds resident
			// anyway: degradation, not a cliff.
		}
		chunkBytes += rb
	}
	if err := flushRun(n, false); err != nil {
		return nil, err
	}
	if len(runs) == 1 {
		return runs[0].perm, nil
	}
	return s.mergeRuns(cols, runs, n), nil
}

// mergeRuns k-way merges sorted runs. Runs hold contiguous arrival
// ranges in order, so breaking key ties by run index reproduces the
// stable sort of the whole input.
func (s *BatchSort) mergeRuns(cols []Vector, runs []sortRun, n int) []int32 {
	for _, r := range runs {
		if r.spilled {
			s.meter.chargeRead(r.bytes)
		}
	}
	out := make([]int32, 0, n)
	heads := make([]int, len(runs))
	for len(out) < n {
		best := -1
		for i, r := range runs {
			if heads[i] >= len(r.perm) {
				continue
			}
			if best < 0 || cmpKeys(s.keys, cols, int(runs[best].perm[heads[best]]), cols, int(r.perm[heads[i]])) > 0 {
				best = i
			}
		}
		out = append(out, runs[best].perm[heads[best]])
		heads[best]++
	}
	return out
}

// cmpKeys orders row i of a against row j of b by the sort keys (0 on a
// full tie), as the serial engine's Compare loop does.
func cmpKeys(keys []SortKey, a []Vector, i int, b []Vector, j int) int {
	for _, k := range keys {
		c := cmpCell(&a[k.Col], i, &b[k.Col], j)
		if c == 0 {
			continue
		}
		if k.Desc {
			return -c
		}
		return c
	}
	return 0
}

// sortPerm stably sorts rows [lo, hi) of cols by keys and returns the
// row ids in sorted order: one stable pass per key from the last to the
// first. Numeric keys are encoded — Int by sign flip, Float by the IEEE
// total-order flip with -0.0 canonicalised to +0.0, descending by
// complement — and radix-sorted beside the ids; String keys
// comparison-sort the ids on the typed vector.
func sortPerm(cols []Vector, keys []SortKey, lo, hi int) []int32 {
	ids := make([]int64, hi-lo)
	for i := range ids {
		ids[i] = int64(lo + i)
	}
	var enc []uint64
	for ki := len(keys) - 1; ki >= 0; ki-- {
		col, desc := &cols[keys[ki].Col], keys[ki].Desc
		if col.T == String {
			slices.SortStableFunc(ids, func(a, b int64) int {
				if desc {
					a, b = b, a
				}
				return cmp.Compare(col.Strs[a], col.Strs[b])
			})
			continue
		}
		if enc == nil {
			enc = make([]uint64, len(ids))
		}
		flip := uint64(0)
		if desc {
			flip = ^flip
		}
		if col.T == Int {
			for i, id := range ids {
				enc[i] = kernels.OrderKeyInt64(col.Ints[id]) ^ flip
			}
		} else {
			for i, id := range ids {
				enc[i] = kernels.OrderKeyFloat64(col.Floats[id]) ^ flip
			}
		}
		kernels.SortPairsByKey(enc, ids)
	}
	perm := make([]int32, len(ids))
	for i, id := range ids {
		perm[i] = int32(id)
	}
	return perm
}

// NextBatch implements BatchOp.
func (s *BatchSort) NextBatch() (*Batch, error) {
	if !s.done {
		if err := s.materialize(); err != nil {
			return nil, err
		}
		s.done = true
	}
	if s.pos >= len(s.out) {
		return nil, nil
	}
	b := s.out[s.pos]
	s.pos++
	s.stat.add(b.Len())
	return b, nil
}

// Stats implements BatchOp.
func (s *BatchSort) Stats() OpStats {
	st := heteroStats(s.stat, s.disp)
	st.Spill = s.meter.opSpill()
	return st
}
