package relational

// morselBatch windows one morsel (rows [m*BatchSize, ...)) of the
// relation's columnar image, tagged with the morsel index. The vectors
// share the cached arrays — no copying.
func morselBatch(rel *Relation, cols []Vector, m int64) *Batch {
	lo := int(m) * BatchSize
	hi := lo + BatchSize
	if n := rel.Len(); hi > n {
		hi = n
	}
	b := &Batch{Schema: rel.Schema, Cols: make([]Vector, len(cols)), Seq: m, n: hi - lo}
	for c := range cols {
		b.Cols[c] = cols[c].Slice(lo, hi)
	}
	return b
}

func morselCount(rel *Relation) int64 {
	return int64((rel.Len() + BatchSize - 1) / BatchSize)
}

// BatchScan streams a materialized relation as columnar batches, one per
// morsel. It is the leaf the morsel dispatcher fans out: Partition splits
// the morsel range across workers.
type BatchScan struct {
	rel  *Relation
	cols []Vector
	next int64
	stat *opCount
}

// NewBatchScan returns a batch scan over rel.
func NewBatchScan(rel *Relation) *BatchScan {
	return &BatchScan{rel: rel, cols: rel.Columnar(), stat: &opCount{}}
}

// Schema implements BatchOp.
func (s *BatchScan) Schema() Schema { return s.rel.Schema }

// NextBatch implements BatchOp.
func (s *BatchScan) NextBatch() (*Batch, error) {
	if s.next >= morselCount(s.rel) {
		return nil, nil
	}
	b := morselBatch(s.rel, s.cols, s.next)
	s.next++
	s.stat.add(b.Len())
	return b, nil
}

// Stats implements BatchOp.
func (s *BatchScan) Stats() OpStats { return s.stat.stats() }

// Partition implements Partitioner: contiguous morsel ranges, part i's
// batches preceding part i+1's.
func (s *BatchScan) Partition(n int) []BatchOp {
	total := morselCount(s.rel)
	n = max(1, min(n, int(total)))
	parts := make([]BatchOp, n)
	for i := range parts {
		from, to := total*int64(i)/int64(n), total*int64(i+1)/int64(n)
		parts[i] = &scanPart{rel: s.rel, cols: s.cols, cur: from, end: to, stat: s.stat}
	}
	return parts
}

// scanPart is one worker's share of a partitioned scan: the morsels
// [cur, end).
type scanPart struct {
	rel  *Relation
	cols []Vector
	cur  int64
	end  int64
	stat *opCount
}

// Schema implements BatchOp.
func (p *scanPart) Schema() Schema { return p.rel.Schema }

// NextBatch implements BatchOp.
func (p *scanPart) NextBatch() (*Batch, error) {
	if p.cur >= p.end {
		return nil, nil
	}
	b := morselBatch(p.rel, p.cols, p.cur)
	p.cur++
	p.stat.add(b.Len())
	return b, nil
}

// Stats implements BatchOp.
func (p *scanPart) Stats() OpStats { return p.stat.stats() }

// NewExchange parallelizes child across workers (0 = NumCPU) as a
// pipeline breaker: its first NextBatch drains child through InOrder, and
// it then hands the batches out in serial order. When child cannot
// partition, or a single worker is requested, child is returned
// unwrapped.
func NewExchange(child BatchOp, workers int) BatchOp {
	w := EffectiveWorkers(workers)
	if _, ok := child.(Partitioner); !ok || w <= 1 {
		return child
	}
	return &exchange{child: child, workers: w, stat: &opCount{}}
}

type exchange struct {
	child   BatchOp
	workers int
	out     outQueue
	stat    *opCount
}

// Schema implements BatchOp.
func (e *exchange) Schema() Schema { return e.child.Schema() }

// NextBatch implements BatchOp.
func (e *exchange) NextBatch() (*Batch, error) {
	return e.out.next(e.stat, func() (out []*Batch, err error) {
		err = InOrder(e.child, e.workers, func(b *Batch) error {
			out = append(out, b)
			return nil
		})
		return out, err
	})
}

// Stats implements BatchOp.
func (e *exchange) Stats() OpStats { return e.stat.stats() }
