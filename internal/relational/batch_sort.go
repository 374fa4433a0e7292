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
	// NewBatchTopK); -1 is the full sort. arrival emits those rows in
	// arrival order instead (see NewBatchTopKUnsorted).
	limit   int
	arrival bool

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
	if s.limit >= 0 {
		return s.topK()
	}
	schema := s.child.Schema()
	cols, n, err := drainCols(s.child, s.workers)
	if err != nil {
		return err
	}
	var perm []int32
	if s.budget != nil {
		perm, err = s.externalSort(cols, n)
	} else {
		err = s.disp.Run(n, func() error {
			perm, _ = sortPerm(cols, s.keys, 0, n)
			return nil
		})
	}
	if err != nil {
		return err
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
// contiguous arrival range of the input, beside the order-encoded first
// key of each of its rows, in run order (nil under a String first key).
type sortRun struct {
	perm    []int32
	k0      []uint64
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
//
// A run ends at the first row whose reservation fails. Rows reserve a
// BatchSize step at a time — one range sum, one Reserve — which succeeds
// exactly when every row of the step would have reserved alone; the step
// that fails is walked row by row to find that first row.
func (s *BatchSort) externalSort(cols []Vector, n int) ([]int32, error) {
	var runs []sortRun
	var chunkBytes, reserved int64
	lo := 0
	flushRun := func(hi int, spill bool) error {
		if hi == lo {
			return nil
		}
		var run sortRun
		if err := s.disp.Run(hi-lo, func() error {
			run.perm, run.k0 = sortPerm(cols, s.keys, lo, hi)
			return nil
		}); err != nil {
			return err
		}
		if spill {
			s.meter.notePartition(1)
			s.meter.chargeWrite(chunkBytes)
		}
		s.budget.Release(reserved)
		run.bytes, run.spilled = chunkBytes, spill
		runs = append(runs, run)
		lo, chunkBytes, reserved = hi, 0, 0
		return nil
	}
	sizer := NewRowSizer(cols)
	for r := 0; r < n; {
		step := min(r+BatchSize, n)
		if sb := int64(sizer.RangeBytes(r, step)); s.budget.Reserve(sb) {
			reserved += sb
			chunkBytes += sb
			r = step
			continue
		}
		for ; r < step; r++ {
			rb := int64(sizer.Bytes(r))
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
	}
	if err := flushRun(n, false); err != nil {
		return nil, err
	}
	switch len(runs) {
	case 0:
		return nil, nil
	case 1:
		return runs[0].perm, nil
	}
	return s.mergeRuns(cols, runs, n), nil
}

// mergeRuns k-way merges sorted runs through a binary heap of run heads,
// smallest at the root. A head carries its row's order-encoded first key,
// so most comparisons are one integer compare; a tie there falls to the
// remaining keys and then to the run index — runs hold contiguous arrival
// ranges in order, so the lower run's row arrived first and the merge
// reproduces the stable sort of the whole input.
func (s *BatchSort) mergeRuns(cols []Vector, runs []sortRun, n int) []int32 {
	for _, r := range runs {
		if r.spilled {
			s.meter.chargeRead(r.bytes)
		}
	}
	type head struct {
		k0  uint64
		run int32
	}
	rest := s.keys
	if runs[0].k0 != nil {
		rest = s.keys[1:]
	}
	pos := make([]int, len(runs))
	load := func(run int32) head {
		h := head{run: run}
		if k0 := runs[run].k0; k0 != nil {
			h.k0 = k0[pos[run]]
		}
		return h
	}
	// tieBefore orders two heads whose first keys tie.
	tieBefore := func(a, b int32) bool {
		if c := cmpKeys(rest, cols, int(runs[a].perm[pos[a]]), cols, int(runs[b].perm[pos[b]])); c != 0 {
			return c < 0
		}
		return a < b
	}
	heap := make([]head, 0, len(runs))
	// siftDown settles x into the subtree rooted at the hole i.
	siftDown := func(i int, x head) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				break
			}
			if r := c + 1; r < len(heap) && (heap[r].k0 < heap[c].k0 || (heap[r].k0 == heap[c].k0 && tieBefore(heap[r].run, heap[c].run))) {
				c = r
			}
			if x.k0 < heap[c].k0 || (x.k0 == heap[c].k0 && tieBefore(x.run, heap[c].run)) {
				break
			}
			heap[i] = heap[c]
			i = c
		}
		heap[i] = x
	}
	for i := range runs {
		heap = append(heap, load(int32(i)))
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i, heap[i])
	}
	out := make([]int32, n)
	for o := range out {
		run := heap[0].run
		out[o] = runs[run].perm[pos[run]]
		if pos[run]++; pos[run] < len(runs[run].perm) {
			siftDown(0, load(run))
		} else if last := len(heap) - 1; last > 0 {
			x := heap[last]
			heap = heap[:last]
			siftDown(0, x)
		}
	}
	return out
}

// cmpKeys orders row i of a against row j of b by the sort keys (0 on a
// full tie) — the order sortPerm sorts in: Float keys compare by their
// order encoding, so the two zeros tie and NaNs sort beyond ±Inf.
func cmpKeys(keys []SortKey, a []Vector, i int, b []Vector, j int) int {
	for _, k := range keys {
		var c int
		if a[k.Col].T == Float {
			c = cmp.Compare(kernels.OrderKeyFloat64(a[k.Col].Floats[i]), kernels.OrderKeyFloat64(b[k.Col].Floats[j]))
		} else {
			c = cmpCell(&a[k.Col], i, &b[k.Col], j)
		}
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
// comparison-sort the ids on the typed vector. k0 is the encoding of the
// first key of every row, in sorted order (nil when that key is a String
// or there are no keys).
func sortPerm(cols []Vector, keys []SortKey, lo, hi int) (perm []int32, k0 []uint64) {
	ids := make([]int64, hi-lo)
	for i := range ids {
		ids[i] = int64(lo + i)
	}
	var enc []uint64
	for ki := len(keys) - 1; ki >= 0; ki-- {
		col, desc := &cols[keys[ki].Col], keys[ki].Desc
		if col.T == String {
			enc = nil
			slices.SortStableFunc(ids, func(a, b int64) int {
				if desc {
					a, b = b, a
				}
				return cmp.Compare(col.Str(int(a)), col.Str(int(b)))
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
	perm = make([]int32, len(ids))
	for i, id := range ids {
		perm[i] = int32(id)
	}
	return perm, enc
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
