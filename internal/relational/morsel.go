package relational

import "sync/atomic"

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

// Partition implements Partitioner.
func (s *BatchScan) Partition(n int, static bool) []BatchOp {
	total := morselCount(s.rel)
	if n > int(total) {
		n = int(total)
	}
	if n < 1 {
		n = 1
	}
	parts := make([]BatchOp, 0, n)
	if static {
		// Contiguous morsel ranges: part i's batches precede part i+1's.
		for i := 0; i < n; i++ {
			from := total * int64(i) / int64(n)
			to := total * int64(i+1) / int64(n)
			parts = append(parts, &scanPart{rel: s.rel, cols: s.cols, cur: from, end: to, stat: s.stat})
		}
		return parts
	}
	// Dynamic morsel queue: workers steal the next morsel as they finish,
	// balancing selective filters; Seq tags let Exchange restore order.
	queue := &atomic.Int64{}
	for i := 0; i < n; i++ {
		parts = append(parts, &scanPart{rel: s.rel, cols: s.cols, queue: queue, end: total, stat: s.stat})
	}
	return parts
}

// scanPart is one worker's share of a partitioned scan: either a static
// [cur, end) morsel range, or a dynamic shared queue.
type scanPart struct {
	rel   *Relation
	cols  []Vector
	cur   int64
	end   int64
	queue *atomic.Int64 // non-nil for dynamic dispatch
	stat  *opCount
}

// Schema implements BatchOp.
func (p *scanPart) Schema() Schema { return p.rel.Schema }

// NextBatch implements BatchOp.
func (p *scanPart) NextBatch() (*Batch, error) {
	var m int64
	if p.queue != nil {
		m = p.queue.Add(1) - 1
	} else {
		m = p.cur
		p.cur++
	}
	if m >= p.end {
		return nil, nil
	}
	b := morselBatch(p.rel, p.cols, m)
	p.stat.add(b.Len())
	return b, nil
}

// Stats implements BatchOp.
func (p *scanPart) Stats() OpStats { return p.stat.stats() }

// exchangeDepth bounds the batches buffered per worker stream. Workers
// block once their channel fills, so peak buffered memory is
// workers × (exchangeDepth+1) batches instead of the full result set.
const exchangeDepth = 4

// Exchange is the morsel dispatcher's merge point: it partitions its
// child across workers (dynamic queue) and streams their outputs through
// a k-way merge on Seq tags — each worker's stream is Seq-ascending
// (morsels are claimed in increasing order and batch operators preserve
// tags), so emitting the smallest head reproduces exactly the serial row
// order regardless of scheduling, without materializing the result.
// Workers share a CancelToken: one failing partition stops its siblings
// at their next batch boundary.
type Exchange struct {
	child   BatchOp
	workers int

	started bool
	chans   []chan *Batch
	heads   []*Batch
	stop    *CancelToken
}

// NewExchange parallelizes child across workers (0 = NumCPU). When child
// cannot partition, or a single worker is requested, child is returned
// unwrapped. Once pulled, the returned operator must be drained to end
// of stream (or error): the merge is streaming, so abandoning it midway
// strands worker goroutines blocked on their bounded channels. Every
// in-tree consumer (Collect, the fragment runners, the LIMIT placement
// below the dispatcher) drains fully.
func NewExchange(child BatchOp, workers int) BatchOp {
	w := EffectiveWorkers(workers)
	if _, ok := child.(Partitioner); !ok || w <= 1 {
		return child
	}
	return &Exchange{child: child, workers: w}
}

// Schema implements BatchOp.
func (e *Exchange) Schema() Schema { return e.child.Schema() }

func (e *Exchange) start() {
	parts := partitionOrSelf(e.child, e.workers, false)
	e.stop = NewCancelToken()
	e.chans = make([]chan *Batch, len(parts))
	for i, part := range parts {
		ch := make(chan *Batch, exchangeDepth)
		e.chans[i] = ch
		go func(part BatchOp, ch chan *Batch) {
			defer close(ch)
			for !e.stop.Cancelled() {
				b, err := part.NextBatch()
				if err != nil {
					e.stop.Cancel(err)
					return
				}
				if b == nil {
					return
				}
				ch <- b
			}
		}(part, ch)
	}
	e.heads = make([]*Batch, len(parts))
	for i := range e.chans {
		e.heads[i] = <-e.chans[i] // nil once the worker closes
	}
}

// drain unblocks any workers still sending after an abort.
func (e *Exchange) drain() {
	for _, ch := range e.chans {
		for range ch { //nolint:revive // discard until closed
		}
	}
	e.heads = nil
}

// NextBatch implements BatchOp.
func (e *Exchange) NextBatch() (*Batch, error) {
	if !e.started {
		e.started = true
		e.start()
	}
	if e.stop.Cancelled() {
		e.drain()
		return nil, e.stop.Err()
	}
	best := -1
	for i, h := range e.heads {
		if h == nil {
			continue
		}
		if best < 0 || h.Seq < e.heads[best].Seq {
			best = i
		}
	}
	if best < 0 {
		// Every worker stream closed; surface a late error if one raced in.
		return nil, e.stop.Err()
	}
	b := e.heads[best]
	e.heads[best] = <-e.chans[best]
	return b, nil
}

// Stats implements BatchOp.
func (e *Exchange) Stats() OpStats { return e.child.Stats() }
