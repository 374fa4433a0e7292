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
// a top-k whose k rows fit spills nothing, whatever the input's size. A
// partition whose reservation fails stops keeping a heap and hands what
// it holds, plus every row still to come, to the budgeted sort
// (externalSort) — the same k rows, priced as the sort prices them.
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
// arrival. Under a budget every slot's row is reserved.
type topKHeap struct {
	keys []SortKey
	k    int
	cand []Vector
	ord  []int64 // arrival ordinal of each slot's row
	heap []int32
	seen int64

	budget   *MemoryBudget
	size     []int64 // reserved bytes of each slot's row (budgeted only)
	reserved int64
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

// offer folds one batch into the heap and returns how many of its rows it
// took: all of them, unless a row the heap must keep could not be
// reserved — the heap is then full for good, and that row and everything
// after it are the caller's. A selected batch's rows are read in place.
func (h *topKHeap) offer(b *Batch) int {
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
		if len(h.heap) < h.k {
			if h.budget != nil {
				rb := int64(sizer.Bytes(r))
				if !h.budget.Reserve(rb) {
					h.seen += int64(i)
					return i
				}
				h.size = append(h.size, rb)
				h.reserved += rb
			}
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
		if h.budget != nil {
			// The displaced row's bytes pay for the new one; only the
			// difference moves.
			rb := int64(sizer.Bytes(r))
			if d := rb - h.size[root]; d > 0 && !h.budget.Reserve(d) {
				h.seen += int64(i)
				return i
			} else if d != 0 {
				h.budget.Release(-d)
				h.reserved += d
				h.size[root] = rb
			}
		}
		for c := range h.cand {
			h.cand[c].setCell(int(root), &b.Cols[c], r)
		}
		h.ord[root] = h.seen + int64(i)
		h.siftDown(0)
	}
	h.seen += int64(n)
	return n
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

// topKPart is one partition's state: its heap, and — non-nil once a
// reservation failed — the rows the heap did not take, in arrival order.
type topKPart struct {
	heap topKHeap
	rest []*Batch
}

// topK materializes the first s.limit rows of the order through
// per-partition heaps. Like the full sort, it dispatches once, as a
// single whole-input morsel.
func (s *BatchSort) topK() error {
	if s.limit == 0 {
		return nil
	}
	schema := s.child.Schema()
	var parts []*topKPart
	err := eachBatch(s.child, s.workers, func(n int) {
		for ; n > 0; n-- {
			parts = append(parts, &topKPart{heap: topKHeap{keys: s.keys, k: s.limit, budget: s.budget}})
		}
	}, func(i int, b *Batch) error {
		p := parts[i]
		if p.rest != nil {
			p.rest = append(p.rest, b)
		} else if took := p.heap.offer(b); took < b.Len() {
			p.rest = append(p.rest, b.window(took, b.Len()))
		}
		return nil
	})
	if err != nil {
		return err
	}
	var lists []*Batch
	var seen int64
	degraded := false
	for _, p := range parts {
		seen += p.heap.seen
		if l := p.heap.kept(schema); l != nil {
			lists = append(lists, l)
		}
		lists = append(lists, p.rest...)
		degraded = degraded || p.rest != nil
		// The kept rows hand over to the final sort, which reserves what
		// it holds itself.
		s.budget.Release(p.heap.reserved)
	}
	cols, n := concatCols(schema, lists)
	var perm []int32
	if degraded {
		perm, err = s.externalSort(cols, n)
	} else {
		err = s.disp.Run(int(seen), func() error {
			perm, _ = sortPerm(cols, s.keys, 0, n)
			return nil
		})
	}
	if err != nil {
		return err
	}
	perm = perm[:min(s.limit, n)]
	if s.arrival {
		slices.Sort(perm)
	}
	s.emit(schema, cols, perm)
	return nil
}
