package relational

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestInOrderSerialAtOnePartition: at one partition InOrder is the serial
// pull loop — each batch reaches fn before the next one is pulled.
func TestInOrderSerialAtOnePartition(t *testing.T) {
	rel := randRel(31, 5*BatchSize+3)
	pulls := &atomic.Int64{}
	var seen int64
	err := InOrder(&pullCounter{BatchOp: NewBatchScan(rel), pulls: pulls}, 1, func(b *Batch) error {
		if seen++; pulls.Load() != seen {
			return fmt.Errorf("batch %d reached fn after %d pulls", seen, pulls.Load())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 6 || pulls.Load() != 7 {
		t.Fatalf("%d batches in %d pulls, want 6 in 7", seen, pulls.Load())
	}
}

// TestInOrderSerialOrder: at Workers 4 fn sees every morsel once, in Seq
// order, and never two at once (the race detector watches seqs).
func TestInOrderSerialOrder(t *testing.T) {
	for _, n := range batchSizes {
		rel := randRel(int64(n)+32, n)
		var seqs []int64
		rows := 0
		err := InOrder(NewBatchScan(rel), 4, func(b *Batch) error {
			seqs = append(seqs, b.Seq)
			rows += b.Len()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range seqs {
			if s != int64(i) {
				t.Fatalf("%d rows: batches in Seq order %v", n, seqs)
			}
		}
		if rows != n {
			t.Fatalf("%d rows: fn saw %d", n, rows)
		}
	}
}

// endlessSource partitions into streams that never end: only a stopped
// drain can return.
type endlessSource struct{ made atomic.Int64 }

func (s *endlessSource) Schema() Schema { return Schema{{Name: "x", Type: Int}} }
func (s *endlessSource) Stats() OpStats { return OpStats{} }
func (s *endlessSource) NextBatch() (*Batch, error) {
	return nil, errors.New("endlessSource must be partitioned")
}

// Partition implements Partitioner.
func (s *endlessSource) Partition(n int) []BatchOp {
	parts := make([]BatchOp, n)
	for i := range parts {
		parts[i] = &endlessPart{src: s, seq: int64(i) << 40}
	}
	return parts
}

type endlessPart struct {
	src *endlessSource
	seq int64
}

func (p *endlessPart) Schema() Schema { return p.src.Schema() }
func (p *endlessPart) Stats() OpStats { return OpStats{} }
func (p *endlessPart) NextBatch() (*Batch, error) {
	runtime.Gosched()
	p.src.made.Add(1)
	b := BatchOf(p.src.Schema(), []Vector{{T: Int, Ints: []int64{p.seq}}}, 1)
	b.Seq = p.seq
	p.seq++
	return b, nil
}

// TestInOrderFnErrorStops: an fn error is the error InOrder returns, and
// it stops the sibling partitions — endless streams here, so a drain that
// went on would never return — and, handed a later partition's batch,
// every batch after it.
func TestInOrderFnErrorStops(t *testing.T) {
	boom := errors.New("fn failed")
	done := make(chan error, 1)
	src := &endlessSource{}
	go func() {
		done <- InOrder(src, 4, func(b *Batch) error {
			if b.Seq == 3 {
				return boom
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("InOrder returned %v, want fn's error", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("fn failed, but the partitions went on (%d batches made)", src.made.Load())
	}

	rel := randRel(33, 8*BatchSize)
	calls := 0
	err := InOrder(NewBatchScan(rel), 4, func(b *Batch) error {
		calls++
		if b.Seq == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 6 {
		t.Fatalf("fn failing on a later partition's batch: %v after %d calls, want fn's error after 6", err, calls)
	}
}
