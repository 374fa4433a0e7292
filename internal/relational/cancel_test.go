package relational

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// cancelProbe builds a Partitioner whose partition 0 fails — but only
// after every sibling has emitted at least one batch, so the error can
// never win the race before the siblings start. Siblings can emit up to
// limit batches each; with cancellation they must stop far earlier.
type cancelProbe struct {
	parts   atomic.Int64
	emitted atomic.Int64
	limit   int
}

func (p *cancelProbe) schema() Schema { return Schema{{Name: "x", Type: Int}} }

type cancelSource struct {
	probe *cancelProbe
}

func (s *cancelSource) Schema() Schema { return s.probe.schema() }
func (s *cancelSource) NextBatch() (*Batch, error) {
	return nil, errors.New("cancelSource must be partitioned")
}
func (s *cancelSource) Stats() OpStats { return OpStats{} }

// Partition implements Partitioner.
func (s *cancelSource) Partition(n int) []BatchOp {
	s.probe.parts.Store(int64(n))
	parts := make([]BatchOp, n)
	for i := range parts {
		parts[i] = &cancelPart{probe: s.probe, idx: i}
	}
	return parts
}

type cancelPart struct {
	probe *cancelProbe
	idx   int
	sent  int
}

func (c *cancelPart) Schema() Schema { return c.probe.schema() }
func (c *cancelPart) Stats() OpStats { return OpStats{} }
func (c *cancelPart) NextBatch() (*Batch, error) {
	if c.idx == 0 {
		for c.probe.emitted.Load() < c.probe.parts.Load()-1 {
			runtime.Gosched()
		}
		return nil, errors.New("partition zero failed")
	}
	if c.sent >= c.probe.limit {
		return nil, nil
	}
	// Yield per batch: on a box with fewer CPUs than partitions, busy
	// siblings would otherwise hold the CPUs for whole time slices while
	// partition zero waits to fail, and drain half the table on timing
	// alone. Without cancellation they still drain all of it.
	runtime.Gosched()
	c.sent++
	c.probe.emitted.Add(1)
	b := BatchOf(c.probe.schema(), []Vector{{T: Int, Ints: []int64{int64(c.sent)}}}, 1)
	b.Seq = int64(c.idx)*int64(c.probe.limit) + int64(c.sent)
	return b, nil
}

// checkCancelled asserts the error surfaced and the siblings stopped well
// short of a full drain.
func checkCancelled(t *testing.T, probe *cancelProbe, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "partition zero failed") {
		t.Fatalf("expected partition error, got %v", err)
	}
	full := int64(probe.limit) * (probe.parts.Load() - 1)
	if got := probe.emitted.Load(); got >= full/2 {
		t.Fatalf("siblings drained %d of %d batches — cancellation did not propagate", got, full)
	}
}

// TestDrainParallelCancels: one failing partition stops its siblings at
// a batch boundary instead of draining the full table.
func TestDrainParallelCancels(t *testing.T) {
	probe := &cancelProbe{limit: 1 << 17}
	src := &cancelSource{probe: probe}
	_, _, err := drainCols(src, 4)
	checkCancelled(t, probe, err)
}

// TestExchangeCancels: a drained NewExchange returns a partition's error
// and stops its siblings.
func TestExchangeCancels(t *testing.T) {
	probe := &cancelProbe{limit: 1 << 17}
	ex := NewExchange(&cancelSource{probe: probe}, 4)
	var err error
	for {
		var b *Batch
		b, err = ex.NextBatch()
		if b == nil || err != nil {
			break
		}
	}
	checkCancelled(t, probe, err)
}

// TestGroupAggCancels: a failing aggregation partition stops siblings.
func TestGroupAggCancels(t *testing.T) {
	probe := &cancelProbe{limit: 1 << 17}
	agg, err := NewBatchGroupAgg(&cancelSource{probe: probe}, nil, []AggSpec{{Fn: CountAgg, Col: -1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = agg.NextBatch()
	checkCancelled(t, probe, err)
}

// TestJoinBuildCancels: a failing build partition stops its siblings.
func TestJoinBuildCancels(t *testing.T) {
	probe := &cancelProbe{limit: 1 << 17}
	empty := NewRelation("probe", probe.schema())
	jn, err := NewBatchHashJoin(&cancelSource{probe: probe}, NewBatchScan(empty), 0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = jn.NextBatch()
	checkCancelled(t, probe, err)
}
