package stream

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/relational"
)

// Hub fans appended batches out to the subscriptions of each table. A
// batch is a column-built relation — the appended window of the table's
// own vectors — and the sql engine owns one Hub and publishes under its
// catalog lock, so every subscription sees batches in append order. All
// methods are safe for concurrent use; Publish and CloseTable never block
// on consumers (subscriptions queue internally and deliver from their own
// goroutine).
type Hub struct {
	mu     sync.Mutex
	subs   map[string][]*Subscription
	closed map[string]bool
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: map[string][]*Subscription{}, closed: map[string]bool{}}
}

// msg is one queued delivery: an ingest batch or the end-of-stream mark.
type msg struct {
	rel   *relational.Relation
	at    time.Time
	close bool
}

// Publish enqueues one appended batch to every subscription of table.
// The caller serializes Publish calls in append order (the engine holds
// its catalog lock across swap-and-publish) and must not write to the
// batch's vectors afterwards.
func (h *Hub) Publish(table string, batch *relational.Relation) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.subs[strings.ToLower(table)] {
		s.enqueue(msg{rel: batch, at: now})
	}
}

// CloseTable marks table's stream ended: every subscription flushes its
// remaining windows and completes, and later subscriptions to the table
// flush immediately. Idempotent.
func (h *Hub) CloseTable(table string) {
	name := strings.ToLower(table)
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed[name] {
		return
	}
	h.closed[name] = true
	for _, s := range h.subs[name] {
		s.enqueue(msg{at: now, close: true})
	}
	delete(h.subs, name)
}

// Reopen clears a closed mark: the catalog replaced the relation, so
// the name starts a fresh stream. Subscriptions to the old incarnation
// have already completed (CloseTable dropped them); new ones window the
// replacement.
func (h *Hub) Reopen(table string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.closed, strings.ToLower(table))
}

// TableClosed reports whether table's stream has ended.
func (h *Hub) TableClosed(table string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed[strings.ToLower(table)]
}

// Subscribe registers a continuous query. prime is the table's current
// relation, delivered as the first batch (so results cover rows appended
// before the subscription too), in either construction form; the caller
// must hold whatever lock serializes appends while calling Subscribe, or
// primed rows could also arrive as published batches. ctx cancellation
// aborts delivery: the output channel closes without a final flush and
// Err reports the cause.
func (h *Hub) Subscribe(ctx context.Context, q *Query, spec WindowSpec, prime *relational.Relation) (*Subscription, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	name := strings.ToLower(q.Table)
	s := &Subscription{
		hub:   h,
		table: name,
		win:   newWindower(q, spec),
		out:   make(chan Window, spec.Buffer),
		done:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	now := time.Now()
	if prime != nil && prime.Len() > 0 {
		s.queue = append(s.queue, msg{rel: prime, at: now})
	}
	h.mu.Lock()
	if h.closed[name] {
		s.queue = append(s.queue, msg{at: now, close: true})
	} else {
		h.subs[name] = append(h.subs[name], s)
	}
	h.mu.Unlock()
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cancelErr = context.Cause(ctx)
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	go s.run(ctx, stop)
	return s, nil
}

// remove drops a finished or cancelled subscription from the fan-out.
func (h *Hub) remove(sub *Subscription) {
	h.mu.Lock()
	defer h.mu.Unlock()
	list := h.subs[sub.table]
	for i, s := range list {
		if s == sub {
			h.subs[sub.table] = append(list[:i:i], list[i+1:]...)
			return
		}
	}
}

// Subscription is one live continuous query: read emitted windows from
// Out until it closes (stream closed, context cancelled, or evaluation
// error — Err distinguishes), then read the final Stats.
type Subscription struct {
	hub   *Hub
	table string
	win   *windower
	out   chan Window
	done  chan struct{}

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []msg
	cancelErr error
	err       error
	windows   int64
	freshness []float64
}

// Out is the emission channel. It closes when the stream closes (after
// the final flush), the subscription's context is cancelled, or window
// evaluation fails.
func (s *Subscription) Out() <-chan Window { return s.out }

// Done closes when delivery has fully stopped (after Out closes).
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Err reports why Out closed: nil for a clean end-of-stream, the context
// cause for cancellation, or the evaluation error.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.cancelErr
}

// enqueue appends one delivery without blocking the publisher.
func (s *Subscription) enqueue(m msg) {
	s.mu.Lock()
	s.queue = append(s.queue, m)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// next blocks for the next delivery; ok is false on cancellation.
func (s *Subscription) next() (msg, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.cancelErr != nil {
			return msg{}, false
		}
		if len(s.queue) > 0 {
			m := s.queue[0]
			s.queue = s.queue[1:]
			return m, true
		}
		s.cond.Wait()
	}
}

// run is the delivery goroutine: drain the queue through the windower,
// emit windows, flush on close.
func (s *Subscription) run(ctx context.Context, stop func() bool) {
	defer close(s.done)
	defer close(s.out)
	defer stop()
	defer s.hub.remove(s)
	for {
		m, ok := s.next()
		if !ok {
			return
		}
		var wins []Window
		var err error
		if m.close {
			wins, err = s.win.flush()
		} else {
			wins, err = s.win.observe(m.rel)
		}
		if err != nil {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
			return
		}
		for _, w := range wins {
			w.FreshnessSeconds = time.Since(m.at).Seconds()
			s.mu.Lock()
			s.windows++
			s.freshness = append(s.freshness, w.FreshnessSeconds)
			s.mu.Unlock()
			select {
			case s.out <- w:
			case <-ctx.Done():
				s.mu.Lock()
				if s.cancelErr == nil {
					s.cancelErr = context.Cause(ctx)
				}
				s.mu.Unlock()
				return
			}
		}
		if m.close {
			return
		}
	}
}

// Stats snapshots the subscription's accounting. Final once Done.
func (s *Subscription) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.win
	st := Stats{
		Events:   w.events,
		Filtered: w.filtered,
		Late:     w.late,
		Dropped:  w.dropped,
		Windows:  s.windows,
	}
	if n := len(s.freshness); n > 0 {
		fr := append([]float64(nil), s.freshness...)
		sort.Float64s(fr)
		st.FreshnessP50 = fr[n/2]
		st.FreshnessP95 = fr[(n*95)/100]
		st.FreshnessMax = fr[n-1]
	}
	if w.q.Budget != nil {
		sp := w.q.Budget.Stats()
		st.Spill = &sp
	}
	return st
}

// Stats is one subscription's streaming report.
type Stats struct {
	// Events counts accepted (post-filter) events; Filtered those the
	// query's WHERE rejected; Late accepted events that arrived behind
	// the maximum event time; Dropped events whose every window had
	// already emitted (they are in the relation but in no window).
	Events, Filtered, Late, Dropped int64
	// Windows is the emitted-window count.
	Windows int64
	// Freshness quantiles over per-window emission delay, seconds.
	FreshnessP50, FreshnessP95, FreshnessMax float64
	// Spill is the budgeted subscription's out-of-core report (nil when
	// unbudgeted).
	Spill *relational.SpillStats
}

// Ingest is the engine's acknowledgement of one appended batch.
type Ingest struct {
	// Start is the global row ordinal of the batch's first row.
	Start int64
	// Rows and Bytes size the batch (encoded bytes, the wire/spill
	// sizing every other layer uses).
	Rows  int
	Bytes float64
	// NetSeconds is the modeled fabric time the distributed append's
	// ingest-class flows took (0 on single-node engines).
	NetSeconds float64
}

// IngestStats accumulates a Source's acknowledgements.
type IngestStats struct {
	Batches    int64
	Rows       int64
	Bytes      float64
	NetSeconds float64
	// WallSeconds is real time spent inside Append calls.
	WallSeconds float64
}

// AppendFunc is the engine-side append path a Source feeds
// (sql.Engine.AppendRows bound to a table).
type AppendFunc func(rows []relational.Row) (Ingest, error)

// Source is the producer handle of one growing relation. It is safe for
// concurrent use; concurrent Appends serialize at the engine's catalog
// lock.
type Source struct {
	table   string
	app     AppendFunc
	closeFn func()

	mu     sync.Mutex
	closed bool
	st     IngestStats
}

// NewSource wraps an append path. closeFn (may be nil) runs once on
// Close — the sql layer passes the hub's end-of-stream mark.
func NewSource(table string, app AppendFunc, closeFn func()) *Source {
	return &Source{table: table, app: app, closeFn: closeFn}
}

// Table returns the source's table name.
func (s *Source) Table() string { return s.table }

// Append feeds one batch of rows into the relation. The returned error
// is the engine's validation or billing error; acknowledged rows are
// durable in the catalog before Append returns.
func (s *Source) Append(rows ...relational.Row) error {
	if len(rows) == 0 {
		return nil
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return errClosed(s.table)
	}
	start := time.Now()
	ing, err := s.app(rows)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.st.Batches++
	s.st.Rows += int64(ing.Rows)
	s.st.Bytes += ing.Bytes
	s.st.NetSeconds += ing.NetSeconds
	s.st.WallSeconds += time.Since(start).Seconds()
	s.mu.Unlock()
	return nil
}

// Close ends the stream: subscriptions flush their remaining windows and
// complete. Idempotent; Append after Close errors.
func (s *Source) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if s.closeFn != nil {
		s.closeFn()
	}
}

// Stats snapshots the source's ingest accounting.
func (s *Source) Stats() IngestStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

type errClosed string

func (e errClosed) Error() string { return "stream: source for table " + string(e) + " is closed" }
