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

	q    outQueue
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

// SetBudget meters the sort's materialized rows against a query memory
// budget: the rows that overflow it are priced as runs spilled to the
// tier and read back, while the sort itself runs in memory, once, as
// without a budget (nil keeps the unbudgeted engine, bit-identically).
func (s *BatchSort) SetBudget(b *MemoryBudget) {
	s.budget = b
	s.meter = newSpillMeter(b)
}

// build drains the child and sorts it (see topK for a limit); under a
// budget the sort first prices the runs it would spill.
func (s *BatchSort) build() ([]*Batch, error) {
	if s.limit >= 0 {
		return s.topK()
	}
	cols, n, err := drainCols(s.child, s.workers)
	if err != nil {
		return nil, err
	}
	if s.budget != nil {
		s.meterRuns(n, NewRowSizer(cols).RangeBytes)
	}
	return s.sort(cols, n, n)
}

// sort is the one sort call: it orders rows [0, n) of cols under one
// dispatch of rows rows (an empty dispatch charges nothing) and gathers
// the output — every row, or a top-k's first limit rows of the order
// (kept in arrival order when arrival is set).
func (s *BatchSort) sort(cols []Vector, n, rows int) ([]*Batch, error) {
	var perm []int32
	err := s.disp.Run(rows, func() error {
		perm, _ = sortPerm(cols, s.keys, n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.limit >= 0 {
		perm = perm[:min(s.limit, n)]
		if s.arrival {
			slices.Sort(perm)
		}
	}
	for c := range cols {
		cols[c] = GatherVector(&cols[c], perm)
	}
	return windowBatches(s.child.Schema(), cols, len(perm)), nil
}

// meterRuns is the budget's meter of a sort: it prices the runs an
// external sort of n rows would cut, bytes(lo, hi) being the size of rows
// [lo, hi), and moves no row. Rows accumulate into a run that reserves
// budget bytes; when a reservation fails the run is priced as written to
// the spill tier and its reservation released. The final run stays
// resident (hybrid — no write for state that fit); once anything spilled,
// reading every spilled run back is priced too. The rows themselves sort
// once, in memory, so every budget answers row for row what the
// unbudgeted sort answers.
//
// A run ends at the first row whose reservation fails. Rows reserve a
// BatchSize step at a time — one range sum, one Reserve — which succeeds
// exactly when every row of the step would have reserved alone; the step
// that fails is walked row by row to find that first row.
func (s *BatchSort) meterRuns(n int, bytes func(lo, hi int) int) {
	var runs, spilled, runBytes, reserved int64
	lo := 0
	for r := 0; r < n; {
		step := min(r+BatchSize, n)
		if sb := int64(bytes(r, step)); s.budget.Reserve(sb) {
			reserved += sb
			runBytes += sb
			r = step
			continue
		}
		for ; r < step; r++ {
			rb := int64(bytes(r, r+1))
			if s.budget.Reserve(rb) {
				reserved += rb
			} else if r > lo {
				s.meter.evict(1, runBytes)
				s.budget.Release(reserved)
				runs, spilled = runs+1, spilled+runBytes
				lo, runBytes, reserved = r, 0, 0
				if s.budget.Reserve(rb) {
					reserved += rb
				}
				// A row that alone exceeds the budget proceeds resident
				// anyway: degradation, not a cliff.
			}
			runBytes += rb
		}
	}
	s.budget.Release(reserved)
	s.meter.charge(0, 0, runs, spilled) // every run read back
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

// sortPerm stably sorts rows [0, n) of cols by keys and returns the
// row ids in sorted order: one stable pass per key from the last to the
// first. Numeric keys are encoded — Int by sign flip, Float by the IEEE
// total-order flip with -0.0 canonicalised to +0.0, descending by
// complement — and radix-sorted beside the ids; String keys
// comparison-sort the ids on the typed vector. k0 is the encoding of the
// first key of every row, in sorted order (nil when that key is a String
// or there are no keys).
func sortPerm(cols []Vector, keys []SortKey, n int) (perm []int32, k0 []uint64) {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
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
func (s *BatchSort) NextBatch() (*Batch, error) { return s.q.next(s.stat, s.build) }

// Stats implements BatchOp.
func (s *BatchSort) Stats() OpStats { return opStats(s.stat, s.disp, s.meter) }
