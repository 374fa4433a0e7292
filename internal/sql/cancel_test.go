package sql

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// Cancellation acceptance suite: a context cancelled mid-query must
// abort execution within one batch boundary on all three paths — the
// serial row engine, the morsel-parallel batch engine, and the
// distributed engine (including a phase parked at the shared fabric's
// admission barrier) — without stranding worker goroutines.

// cancelConfigs enumerates the three execution paths.
func cancelConfigs() map[string]Config {
	serial := DefaultConfig()
	serial.Parallel = false
	parallel := DefaultConfig()
	parallel.Workers = 4
	distributed := DefaultConfig()
	distributed.Distributed = true
	distributed.Shards = 4
	distributed.Topology = "single"
	return map[string]Config{"serial": serial, "parallel": parallel, "distributed": distributed}
}

// cancelQuery is compute-heavy per row (residual predicate plus float
// expressions) so mid-flight cancellation has a window to land in.
const cancelQuery = "SELECT region, SUM(price * (1 - discount) * quantity) AS v FROM sales WHERE quantity * 3 > 2 GROUP BY region"

// TestCancelBeforeExecution: an already-cancelled context aborts before
// any operator pulls, on every path.
func TestCancelBeforeExecution(t *testing.T) {
	for name, cfg := range cancelConfigs() {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		RegisterDemo(eng, 7, 2000, 50)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := eng.Session().Query(ctx, cancelQuery); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: expected context.Canceled, got %v", name, err)
		}
	}
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline (small slack for runtime helpers) and fails if it does not —
// the leak detector for stranded partition goroutines and shard fragments.
func settleGoroutines(t *testing.T, name string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("%s: goroutines leaked: %d running, baseline %d", name, n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelMidQuery cancels shortly after execution starts on each
// path, asserting the query reports the context error promptly and no
// worker goroutines are stranded. If a run completes before the cancel
// lands (fast machine), the table grows and the run retries.
func TestCancelMidQuery(t *testing.T) {
	for name, cfg := range cancelConfigs() {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			rows := 200_000
			for attempt := 0; attempt < 5; attempt++ {
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				RegisterDemo(eng, 7, rows, 100)
				ctx, cancel := context.WithCancel(context.Background())
				timer := time.AfterFunc(2*time.Millisecond, cancel)
				start := time.Now()
				_, qerr := eng.Session().Query(ctx, cancelQuery)
				elapsed := time.Since(start)
				timer.Stop()
				cancel()
				if qerr == nil {
					// Completed before the cancel fired: grow and retry.
					rows *= 2
					continue
				}
				if !errors.Is(qerr, context.Canceled) {
					t.Fatalf("expected context.Canceled, got %v", qerr)
				}
				// Prompt abort: nowhere near a full-table run. The bound is
				// generous (batch boundaries, not instants) but catches
				// drain-the-world regressions.
				if elapsed > 2*time.Second {
					t.Fatalf("cancellation took %v", elapsed)
				}
				settleGoroutines(t, name, baseline)
				return
			}
			t.Fatalf("query kept completing before cancellation up to %d rows", rows)
		})
	}
}

// TestCancelAtFabricBarrier: a distributed query whose phase is parked
// at the shared fabric's admission barrier (waiting for an expected
// second query that never arrives) must abort on cancellation — the
// deterministic test for the barrier-withdrawal path.
func TestCancelAtFabricBarrier(t *testing.T) {
	cfg := cancelConfigs()["distributed"]
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(eng, 7, 2000, 50)
	baseline := runtime.NumGoroutine()
	eng.Fabric().Expect(2) // the second query never comes
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := eng.Session().Query(ctx, cancelQuery)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("query finished despite barrier: %v", err)
	case <-time.After(200 * time.Millisecond):
		// Parked at the barrier, as intended.
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("expected context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unpark the barrier wait")
	}
	settleGoroutines(t, "barrier", baseline)

	// The cancelled query must have deregistered: a follow-up query on the
	// same fabric runs to completion instead of waiting forever.
	res, err := eng.Session().Query(context.Background(), cancelQuery)
	if err != nil || res.Rows.Len() == 0 {
		t.Fatalf("fabric wedged after cancelled query: %v", err)
	}
}
