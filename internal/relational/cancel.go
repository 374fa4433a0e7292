package relational

import (
	"sync"
	"sync/atomic"
)

// cancelGroup is the abort flag shared by the sibling partitions of one
// parallel operator (eachBatch, under every pipeline breaker, and the
// streaming Exchange). The first partition to fail records its error
// and trips the flag; siblings poll it at batch boundaries and stop early
// instead of draining their full input.
type cancelGroup struct {
	tripped atomic.Bool
	mu      sync.Mutex
	err     error
}

// abort records the first error and trips the flag. A nil error trips the
// flag without recording (cooperative shutdown).
func (g *cancelGroup) abort(err error) {
	if err != nil {
		g.mu.Lock()
		if g.err == nil {
			g.err = err
		}
		g.mu.Unlock()
	}
	g.tripped.Store(true)
}

// stop reports whether siblings should cease at the next batch boundary.
func (g *cancelGroup) stop() bool { return g.tripped.Load() }

// Err returns the recorded error, if any.
func (g *cancelGroup) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}
