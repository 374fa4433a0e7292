package relational

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrCancelled is the error a CancelToken reports when it was cancelled
// without an explicit cause.
var ErrCancelled = errors.New("relational: execution cancelled")

// CancelToken is the engine's one cancellation primitive: a first-cause-
// wins flag polled at row or batch boundaries. It is a query execution's
// external-cancellation handle (Guard/GuardBatch surface a caller-side
// signal, typically a context.Context, at the next boundary), and siblings
// sharing one — a parallel drain's partitions, dist.RunShards' shards, the
// lifecycle guard's speculative pair — stop at their next boundary after
// the first failure, which is the error reported.
//
// A token is single-use and safe for concurrent use.
type CancelToken struct {
	tripped atomic.Bool
	mu      sync.Mutex
	err     error
	subs    []func()
}

// NewCancelToken returns an untripped token.
func NewCancelToken() *CancelToken { return &CancelToken{} }

// Cancel trips the token with the given cause (nil records ErrCancelled)
// and fires any OnCancel subscribers. The first cause wins; later calls
// are no-ops.
func (t *CancelToken) Cancel(err error) {
	if err == nil {
		err = ErrCancelled
	}
	t.mu.Lock()
	if t.err != nil {
		t.mu.Unlock()
		return
	}
	t.err = err
	subs := t.subs
	t.subs = nil
	t.mu.Unlock()
	t.tripped.Store(true)
	for _, fn := range subs {
		fn()
	}
}

// Cancelled reports whether the token has tripped. It is the fast path
// the per-batch checks poll.
func (t *CancelToken) Cancelled() bool { return t != nil && t.tripped.Load() }

// Err returns the recorded cause, or nil while the token is live. A nil
// token reports nil, so optional tokens need no call-site guards.
func (t *CancelToken) Err() error {
	if t == nil || !t.tripped.Load() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// OnCancel registers fn to run when the token trips (immediately if it
// already has). Blocked waiters — e.g. a query parked at a fabric
// admission barrier — use it to get woken on cancellation.
func (t *CancelToken) OnCancel(fn func()) {
	t.mu.Lock()
	if t.err != nil {
		t.mu.Unlock()
		fn()
		return
	}
	t.subs = append(t.subs, fn)
	t.mu.Unlock()
}

// Guard wraps a row operator so the token is checked on every Next. A
// nil token returns op unchanged.
func Guard(op Op, t *CancelToken) Op {
	if t == nil {
		return op
	}
	return &guardOp{child: op, t: t}
}

type guardOp struct {
	child Op
	t     *CancelToken
}

// Schema implements Op.
func (g *guardOp) Schema() Schema { return g.child.Schema() }

// Next implements Op.
func (g *guardOp) Next() (Row, bool, error) {
	if g.t.Cancelled() {
		return nil, false, g.t.Err()
	}
	return g.child.Next()
}

// Stats implements Op.
func (g *guardOp) Stats() OpStats { return g.child.Stats() }

// GuardBatch wraps a batch operator so the token is checked at every
// batch boundary. The wrapper partitions like its child, so a guarded
// leaf keeps the check on every partition's stream — the first partition
// to observe cancellation returns the token's error, which the drain's
// own token then propagates to its siblings. A nil token
// returns op unchanged.
func GuardBatch(op BatchOp, t *CancelToken) BatchOp {
	if t == nil {
		return op
	}
	return &guardBatchOp{child: op, t: t}
}

type guardBatchOp struct {
	child BatchOp
	t     *CancelToken
}

// Schema implements BatchOp.
func (g *guardBatchOp) Schema() Schema { return g.child.Schema() }

// NextBatch implements BatchOp.
func (g *guardBatchOp) NextBatch() (*Batch, error) {
	if g.t.Cancelled() {
		return nil, g.t.Err()
	}
	return g.child.NextBatch()
}

// Stats implements BatchOp.
func (g *guardBatchOp) Stats() OpStats { return g.child.Stats() }

// Partition implements Partitioner.
func (g *guardBatchOp) Partition(n int) []BatchOp {
	p, ok := g.child.(Partitioner)
	if !ok {
		return nil
	}
	parts := p.Partition(n)
	out := make([]BatchOp, len(parts))
	for i, cp := range parts {
		out[i] = &guardBatchOp{child: cp, t: g.t}
	}
	return out
}
