package dist

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/relational"
)

// waitBatches is how many batches each waitSource partition makes.
const waitBatches = 16

var waitSchema = relational.Schema{{Name: "seq", Type: relational.Int}}

// waitSource is a partitioned stream whose partition 0 makes its first
// batch only after partition 1 has made all of its batches: a driver in
// which partition 1 waits on a consumer that waits on partition 0 never
// finishes. Partition i's k-th batch carries Seq i*waitBatches+k, and
// so does its one row.
type waitSource struct{}

func (waitSource) Schema() relational.Schema { return waitSchema }
func (waitSource) Stats() relational.OpStats { return relational.OpStats{} }
func (waitSource) NextBatch() (*relational.Batch, error) {
	return nil, errors.New("waitSource must be partitioned")
}

// Partition implements relational.Partitioner.
func (waitSource) Partition(n int) []relational.BatchOp {
	done := make(chan struct{})
	parts := make([]relational.BatchOp, n)
	for i := range parts {
		parts[i] = &waitPart{idx: i, done: done}
	}
	return parts
}

type waitPart struct {
	idx, sent int
	done      chan struct{} // closed once partition 1 has made every batch
}

func (p *waitPart) Schema() relational.Schema { return waitSchema }
func (p *waitPart) Stats() relational.OpStats { return relational.OpStats{} }
func (p *waitPart) NextBatch() (*relational.Batch, error) {
	if p.sent == waitBatches {
		if p.idx == 1 {
			close(p.done)
		}
		p.sent++
	}
	if p.sent > waitBatches {
		return nil, nil
	}
	if p.idx == 0 && p.sent == 0 {
		<-p.done
	}
	seq := int64(p.idx*waitBatches + p.sent)
	p.sent++
	b := relational.BatchOf(waitSchema, []relational.Vector{{T: relational.Int, Ints: []int64{seq}}}, 1)
	b.Seq = seq
	return b, nil
}

// TestDrainNoProducerWaitsOnConsumer: the parallel drivers finish on a
// stream whose partition 0 waits for partition 1 to end, at Workers 2 and
// 4, and hand the rows over in serial Seq order — Drain, a drained
// NewExchange and a shard's partial aggregate alike. A driver that bounds
// what a later partition may make ahead of partition 0 deadlocks here,
// which the timeout reports instead of hanging.
func TestDrainNoProducerWaitsOnConsumer(t *testing.T) {
	runs := map[string]func(workers int) ([]int64, error){
		"drain": func(workers int) ([]int64, error) {
			rel, err := relational.Drain(waitSource{}, workers, "out")
			if err != nil {
				return nil, err
			}
			return rel.Columnar()[0].Ints, nil
		},
		"exchange": func(workers int) ([]int64, error) {
			ex := relational.NewExchange(waitSource{}, workers)
			var seqs []int64
			for {
				b, err := ex.NextBatch()
				if err != nil || b == nil {
					return seqs, err
				}
				if b.Cols[0].Ints[0] != b.Seq {
					return nil, errors.New("batch row does not carry its Seq")
				}
				seqs = append(seqs, b.Seq)
			}
		},
		"partial_agg": func(workers int) ([]int64, error) {
			aggs := []relational.AggSpec{{Fn: relational.CountAgg, Col: -1}}
			pa, err := PartialAggSink([]int{0}, aggs, 0, workers, nil, nil)(0, waitSource{})
			if err != nil {
				return nil, err
			}
			// Every row is its own group: the partial's first-seen group
			// order is the order its rows were folded in.
			cols, _ := pa.EmitCols(relational.Schema{{Name: "seq", Type: relational.Int}, {Name: "n", Type: relational.Int}}, false)
			return cols[0].Ints, nil
		},
	}
	for _, name := range []string{"drain", "exchange", "partial_agg"} {
		for _, workers := range []int{2, 4} {
			type result struct {
				seqs []int64
				err  error
			}
			done := make(chan result, 1)
			go func() {
				seqs, err := runs[name](workers)
				done <- result{seqs, err}
			}()
			select {
			case r := <-done:
				if r.err != nil {
					t.Fatalf("%s at Workers %d: %v", name, workers, r.err)
				}
				want := make([]int64, workers*waitBatches)
				for i := range want {
					want[i] = int64(i)
				}
				if !slices.Equal(r.seqs, want) {
					t.Fatalf("%s at Workers %d: rows in order %v, want %v", name, workers, r.seqs, want)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("%s at Workers %d did not finish: a partition waits on its consumer", name, workers)
			}
		}
	}
}
