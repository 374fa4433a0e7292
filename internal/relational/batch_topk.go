package relational

import (
	"cmp"
	"fmt"
	"slices"
)

// NewBatchTopK returns ORDER BY keys LIMIT k as one operator: a BatchSort
// that keeps only the first k rows of the order. Every static partition
// of the child keeps its k best rows in a bounded heap, and the
// per-partition lists — each in arrival order, concatenated in partition
// order — are stably sorted once and cut at k. Rows tied on every
// key resolve by arrival order, so the result is row-for-row the first k
// rows of the full sort, at O(n log k) compares and O(k) memory per
// partition. Under a memory budget the heaps reserve the rows they keep:
// a top-k whose k rows fit spills nothing, whatever the input's size. The
// budget never changes the algorithm: a heap whose reservation fails
// keeps its heap and records only row sizes, and the budget prices them
// as the budgeted sort would have spilled them (meterRuns).
func NewBatchTopK(child BatchOp, keys []SortKey, k, workers int) (*BatchSort, error) {
	if k < 0 {
		return nil, fmt.Errorf("relational: top-k of %d rows", k)
	}
	s, err := NewBatchSort(child, keys, workers)
	if err != nil {
		return nil, err
	}
	s.limit = k
	return s, nil
}

// NewBatchTopKUnsorted is NewBatchTopK emitting its k rows in arrival
// order instead of key order: the filter a shard runs below a gather
// whose coordinator takes the top k of the merged streams. Any row of the
// global top k has fewer than k better rows in its own shard, so it
// survives; and the shard's stream keeps the order the gather merges by.
func NewBatchTopKUnsorted(child BatchOp, keys []SortKey, k, workers int) (*BatchSort, error) {
	s, err := NewBatchTopK(child, keys, k, workers)
	if err != nil {
		return nil, err
	}
	s.arrival = true
	return s, nil
}

// topKHeap holds the k best rows one partition has seen: the rows live in
// typed columns addressed by slot, and heap is a binary heap of slots
// with the worst kept row at the root — worst by keys, then latest
// arrival. Under a budget every slot's row is reserved until the first
// reservation fails; the heap then keeps going unreserved and records, in
// fallback, the sizes of the rows the budgeted sort of the input would
// have held instead: the rows kept at that point, in arrival order, then
// every row offered since.
type topKHeap struct {
	keys []SortKey
	k    int
	cand []Vector
	ord  []int64 // arrival ordinal of each slot's row
	heap []int32
	seen int64

	budget   *MemoryBudget
	size     []int // reserved bytes of each slot's row (budgeted only)
	reserved int64
	fallback []int // non-nil once a reservation failed
}

// worse reports whether slot a's row sorts after slot b's.
func (h *topKHeap) worse(a, b int32) bool {
	if c := cmpKeys(h.keys, h.cand, int(a), h.cand, int(b)); c != 0 {
		return c > 0
	}
	return h.ord[a] > h.ord[b]
}

func (h *topKHeap) siftDown(i int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h.heap); c++ {
			if h.worse(h.heap[c], h.heap[worst]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h.heap[i], h.heap[worst] = h.heap[worst], h.heap[i]
		i = worst
	}
}

// offer folds one batch into the heap, reading a selected batch's rows
// in place.
func (h *topKHeap) offer(b *Batch) {
	if h.cand == nil {
		h.cand = make([]Vector, len(b.Cols))
		for c := range b.Cols {
			h.cand[c].T = b.Cols[c].T
		}
	}
	var sizer RowSizer
	if h.budget != nil {
		sizer = NewRowSizer(b.Cols)
	}
	n := b.Len()
	for i := 0; i < n; i++ {
		r := i // the vectors' row
		if b.Sel != nil {
			r = int(b.Sel[i])
		}
		if h.fallback != nil {
			h.fallback = append(h.fallback, sizer.Bytes(r))
		}
		if len(h.heap) < h.k {
			h.reserve(sizer, r, -1)
			slot := int32(len(h.heap))
			for c := range h.cand {
				h.cand[c].appendCell(&b.Cols[c], r)
			}
			h.ord = append(h.ord, h.seen+int64(i))
			h.heap = append(h.heap, slot)
			for i := len(h.heap) - 1; i > 0 && h.worse(h.heap[i], h.heap[(i-1)/2]); i = (i - 1) / 2 {
				h.heap[i], h.heap[(i-1)/2] = h.heap[(i-1)/2], h.heap[i]
			}
			continue
		}
		// A later row displaces the root only by beating it on the keys:
		// on a tie the earlier arrival stays.
		root := h.heap[0]
		if cmpKeys(h.keys, b.Cols, r, h.cand, int(root)) >= 0 {
			continue
		}
		h.reserve(sizer, r, root)
		for c := range h.cand {
			h.cand[c].setCell(int(root), &b.Cols[c], r)
		}
		h.ord[root] = h.seen + int64(i)
		h.siftDown(0)
	}
	h.seen += int64(n)
}

// reserve charges row r's bytes for a new slot (root < 0) or for slot
// root, whose displaced row's bytes pay for it: only the difference
// moves. The first charge that fails starts the fallback record with the
// kept rows and row r; after it the heap reserves nothing.
func (h *topKHeap) reserve(z RowSizer, r int, root int32) {
	if h.budget == nil || h.fallback != nil {
		return
	}
	rb := z.Bytes(r)
	d := int64(rb)
	if root >= 0 {
		d -= int64(h.size[root])
	}
	if d > 0 && !h.budget.Reserve(d) {
		h.fallback = append(h.sortSizes(), rb)
		return
	}
	if root < 0 {
		h.size = append(h.size, rb)
	} else {
		h.budget.Release(-d)
		h.size[root] = rb
	}
	h.reserved += d
}

// byArrival returns the kept slots in arrival order.
func (h *topKHeap) byArrival() []int32 {
	slots := slices.Clone(h.heap)
	slices.SortFunc(slots, func(a, b int32) int { return cmp.Compare(h.ord[a], h.ord[b]) })
	return slots
}

// sortSizes returns the sizes of the rows this partition hands the
// budgeted sort: its fallback record, or, while every reservation held,
// its kept rows in arrival order (a budgeted heap only).
func (h *topKHeap) sortSizes() []int {
	if h.fallback != nil {
		return h.fallback
	}
	sizes := make([]int, 0, len(h.heap))
	for _, slot := range h.byArrival() {
		sizes = append(sizes, h.size[slot])
	}
	return sizes
}

// kept returns the kept rows in arrival order as one batch (nil if none).
func (h *topKHeap) kept(schema Schema) *Batch {
	if len(h.heap) == 0 {
		return nil
	}
	slots := h.byArrival()
	out := &Batch{Schema: schema, Cols: make([]Vector, len(h.cand)), n: len(slots)}
	for c := range h.cand {
		out.Cols[c] = GatherVector(&h.cand[c], slots)
	}
	return out
}

// topK builds the first s.limit rows of the order through per-partition
// heaps: the kept lists, concatenated in partition order, go through the
// one sort call. Like the full sort, it dispatches once, as a single
// whole-input morsel. When a heap's reservation failed, the budget prices
// what the budgeted sort of the rows its fallback records would have
// spilled (meterRuns, every partition's share in partition order), and the
// dispatch counts those rows, as it did when they were sorted.
func (s *BatchSort) topK() ([]*Batch, error) {
	if s.limit == 0 {
		return nil, nil
	}
	schema := s.child.Schema()
	var heaps []*topKHeap
	err := eachBatch(s.child, s.workers, func(n int) {
		for ; n > 0; n-- {
			heaps = append(heaps, &topKHeap{keys: s.keys, k: s.limit, budget: s.budget})
		}
	}, func(i int, b *Batch) error {
		heaps[i].offer(b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var lists []*Batch
	var seen int64
	failed := false
	for _, h := range heaps {
		seen += h.seen
		if l := h.kept(schema); l != nil {
			lists = append(lists, l)
		}
		failed = failed || h.fallback != nil
		// The heaps' reservations end here, before a fallback's meter
		// reserves as the budgeted sort would have.
		s.budget.Release(h.reserved)
	}
	rows := int(seen)
	if failed {
		var sizes []int
		for _, h := range heaps {
			sizes = append(sizes, h.sortSizes()...)
		}
		s.meterRuns(len(sizes), func(lo, hi int) int {
			total := 0
			for _, b := range sizes[lo:hi] {
				total += b
			}
			return total
		})
		rows = len(sizes)
	}
	cols, n := concatCols(schema, lists)
	return s.sort(cols, n, rows)
}
