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
// partition. Under a memory budget the operator runs the full external
// sort and cuts its output instead, so spill accounting is the sort's.
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

// topKHeap holds the k best rows one partition has seen: the rows live in
// typed columns addressed by slot, and heap is a binary heap of slots
// with the worst kept row at the root — worst by keys, then latest
// arrival.
type topKHeap struct {
	keys []SortKey
	k    int
	cand []Vector
	ord  []int64 // arrival ordinal of each slot's row
	heap []int32
	seen int64
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

// offer folds one batch into the heap.
func (h *topKHeap) offer(b *Batch) {
	if h.cand == nil {
		h.cand = make([]Vector, len(b.Cols))
		for c := range b.Cols {
			h.cand[c].T = b.Cols[c].T
		}
	}
	for r, n := 0, b.Len(); r < n; r++ {
		if len(h.heap) < h.k {
			slot := int32(len(h.heap))
			for c := range h.cand {
				h.cand[c].appendCell(&b.Cols[c], r)
			}
			h.ord = append(h.ord, h.seen+int64(r))
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
		for c := range h.cand {
			h.cand[c].setCell(int(root), &b.Cols[c], r)
		}
		h.ord[root] = h.seen + int64(r)
		h.siftDown(0)
	}
	h.seen += int64(b.Len())
}

// kept returns the kept rows in arrival order as one batch (nil if none).
func (h *topKHeap) kept(schema Schema) *Batch {
	if len(h.heap) == 0 {
		return nil
	}
	slices.SortFunc(h.heap, func(a, b int32) int { return cmp.Compare(h.ord[a], h.ord[b]) })
	out := &Batch{Schema: schema, Cols: make([]Vector, len(h.cand)), n: len(h.heap)}
	for c := range h.cand {
		out.Cols[c] = GatherVector(&h.cand[c], h.heap)
	}
	return out
}

// topK materializes the first s.limit rows of the order through
// per-partition heaps. Like the full sort, it dispatches once, as a
// single whole-input morsel.
func (s *BatchSort) topK() error {
	if s.limit == 0 {
		return nil
	}
	schema := s.child.Schema()
	var heaps []*topKHeap
	err := eachBatch(s.child, s.workers, func(n int) {
		for ; n > 0; n-- {
			heaps = append(heaps, &topKHeap{keys: s.keys, k: s.limit})
		}
	}, func(i int, b *Batch) error {
		heaps[i].offer(b)
		return nil
	})
	if err != nil {
		return err
	}
	var lists []*Batch
	var seen int64
	for _, h := range heaps {
		seen += h.seen
		if l := h.kept(schema); l != nil {
			lists = append(lists, l)
		}
	}
	return s.disp.Run(int(seen), func() error {
		cols, n := concatCols(schema, lists)
		perm := sortPerm(cols, s.keys, 0, n)
		s.emit(schema, cols, perm[:min(s.limit, n)])
		return nil
	})
}
