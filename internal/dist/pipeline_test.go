package dist

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/relational"
)

var chunkSizes = []int{1, 7, 32, 1000}

// TestRepartitionChunksParity: chunked repartition lands exactly the
// bulk destinations, and its per-(src,dst) bytes sum to the bulk
// transfers.
func TestRepartitionChunksParity(t *testing.T) {
	rel := testRel(123)
	st := ShardRelation(rel, 4, RangeShard, -1)
	bulkDests, bulkTransfers := Repartition(st.Relations(), 0, st.SeqCol())
	bulkBytes := map[[2]int]float64{}
	for _, tr := range bulkTransfers {
		bulkBytes[[2]int{tr.Src, tr.Dst}] += tr.Bytes
	}
	for _, cr := range chunkSizes {
		dests, chunks := RepartitionChunks(st.Relations(), 0, st.SeqCol(), cr)
		for d := range dests {
			if dests[d].Len() != bulkDests[d].Len() {
				t.Fatalf("cr=%d dest %d: %d rows want %d", cr, d, dests[d].Len(), bulkDests[d].Len())
			}
			for i := range dests[d].RowView() {
				if dests[d].RowView()[i][st.SeqCol()].I != bulkDests[d].RowView()[i][st.SeqCol()].I {
					t.Fatalf("cr=%d dest %d row %d differs", cr, d, i)
				}
			}
		}
		got := map[[2]int]float64{}
		totalCompute := 0.0
		for _, ch := range chunks {
			for _, tr := range ch.Transfers {
				if tr.Bytes <= 0 || tr.Src == tr.Dst {
					t.Fatalf("cr=%d bogus chunk transfer %+v", cr, tr)
				}
				got[[2]int{tr.Src, tr.Dst}] += tr.Bytes
			}
			totalCompute += ch.ComputeBytes
		}
		if len(got) != len(bulkBytes) {
			t.Fatalf("cr=%d: %d flow pairs want %d", cr, len(got), len(bulkBytes))
		}
		for k, b := range bulkBytes {
			if got[k] != b {
				t.Fatalf("cr=%d pair %v: %v bytes want %v", cr, k, got[k], b)
			}
		}
		if want := rel.EncodedBytes() + 8*float64(len(rel.Rows)); totalCompute != want {
			// every row (seq col included) is digested exactly once
			t.Fatalf("cr=%d compute bytes %v want %v", cr, totalCompute, want)
		}
	}
}

// TestBroadcastChunksParity: the chunked broadcast's merged build side
// matches bulk, and each source's chunk bytes sum to its bulk relation
// bytes.
func TestBroadcastChunksParity(t *testing.T) {
	rel := testRel(60)
	st := ShardRelation(rel, 4, HashShard, 0)
	bulkMerged, bulkTransfers := Broadcast(st.Relations(), st.SeqCol(), true)
	bulkPerSrc := map[int]float64{}
	for _, tr := range bulkTransfers {
		bulkPerSrc[tr.Src] += tr.Bytes
	}
	for _, cr := range chunkSizes {
		merged, chunks, bounds := BroadcastChunks(st.Relations(), st.SeqCol(), true, cr)
		if merged.Len() != bulkMerged.Len() {
			t.Fatalf("cr=%d merged %d rows want %d", cr, merged.Len(), bulkMerged.Len())
		}
		for i := range merged.RowView() {
			if merged.RowView()[i][0].I != bulkMerged.RowView()[i][0].I {
				t.Fatalf("cr=%d merged row %d differs", cr, i)
			}
		}
		perSrc := map[int]float64{}
		for _, ch := range chunks {
			for _, tr := range ch.Transfers {
				if tr.Bytes <= 0 || tr.Src == tr.Dst || tr.Dst == Coordinator {
					t.Fatalf("cr=%d bogus transfer %+v", cr, tr)
				}
				perSrc[tr.Src] += tr.Bytes
			}
		}
		for src, b := range bulkPerSrc {
			if perSrc[src] != b {
				t.Fatalf("cr=%d src %d: %v bytes want %v", cr, src, perSrc[src], b)
			}
		}
		if bounds[len(bounds)-1] != merged.Len() {
			t.Fatalf("cr=%d final bound %d want %d", cr, bounds[len(bounds)-1], merged.Len())
		}
	}
}

// TestGatherChunksSeqMerger: taking each chunk's bound from a SeqMerger
// reconstructs MergeBySeq row for row, and chunk bytes sum to the bulk
// per-shard bytes.
func TestGatherChunksSeqMerger(t *testing.T) {
	rel := testRel(91)
	st := ShardRelation(rel, 3, HashShard, 0)
	shards := st.Relations()
	bulk := MergeBySeq("m", shards, st.SeqCol(), true)
	for _, cr := range chunkSizes {
		chunks, bounds := GatherChunks(shards, st.SeqCol(), cr)
		perShard := make([]float64, 3)
		for _, ch := range chunks {
			for _, tr := range ch.Transfers {
				if tr.Dst != Coordinator || tr.Bytes <= 0 {
					t.Fatalf("cr=%d bogus transfer %+v", cr, tr)
				}
				perShard[tr.Src] += tr.Bytes
			}
		}
		for i, sh := range shards {
			if want := sh.EncodedBytes(); perShard[i] != want {
				t.Fatalf("cr=%d shard %d: %v bytes want %v", cr, i, perShard[i], want)
			}
		}
		out := relational.NewRelation("m", bulk.Schema)
		m := NewSeqMerger(shards, st.SeqCol())
		for _, b := range bounds {
			m.Take(b, func(shard, row int) {
				out.Rows = append(out.Rows, shards[shard].RowView()[row][:st.SeqCol()])
			})
		}
		if len(out.Rows) != bulk.Len() {
			t.Fatalf("cr=%d merged %d rows want %d", cr, len(out.Rows), bulk.Len())
		}
		for i := range out.Rows {
			if out.Rows[i][0].I != bulk.RowView()[i][0].I {
				t.Fatalf("cr=%d row %d differs", cr, i)
			}
		}
	}
}

// TestEmptyShardNoZeroByteFlows: empty shards must not emit zero-byte
// transfers that would join admission rounds — on the bulk emitters and
// on every chunked path.
func TestEmptyShardNoZeroByteFlows(t *testing.T) {
	empty := relational.NewRelation("t", relational.Schema{
		{Name: "k", Type: relational.Int},
		{Name: "seq", Type: relational.Int},
	})
	full := relational.NewRelation("t", empty.Schema)
	for i := 0; i < 10; i++ {
		full.MustAppend(relational.Row{relational.IntV(int64(i)), relational.IntV(int64(i))})
	}
	shards := []*relational.Relation{empty, full, empty}
	_, transfers := Repartition(shards, 0, 1)
	for _, tr := range transfers {
		if tr.Bytes <= 0 {
			t.Fatalf("Repartition emitted zero-byte transfer %+v", tr)
		}
	}
	_, bTransfers := Broadcast(shards, 1, false)
	for _, tr := range bTransfers {
		if tr.Bytes <= 0 || tr.Src != 1 {
			t.Fatalf("Broadcast emitted transfer from empty shard: %+v", tr)
		}
	}
	_, chunks := RepartitionChunks(shards, 0, 1, 4)
	_, bChunks, _ := BroadcastChunks(shards, 1, false, 4)
	gChunks, _ := GatherChunks(shards, 1, 4)
	for _, set := range [][]Chunk{chunks, bChunks, gChunks} {
		for _, ch := range set {
			for _, tr := range ch.Transfers {
				if tr.Bytes <= 0 {
					t.Fatalf("chunked path emitted zero-byte transfer %+v", tr)
				}
			}
		}
	}
}

// pipelineChunks builds n identical test chunks moving bytes 0→1 with
// the given per-chunk compute bytes.
func pipelineChunks(n int, bytes, compute float64) []Chunk {
	out := make([]Chunk, n)
	for i := range out {
		out[i] = Chunk{
			Transfers:    []Transfer{{Src: 0, Dst: 1, Bytes: bytes}},
			ComputeBytes: compute,
		}
	}
	return out
}

// TestRunPipelinedOverlap: consumers run once each in order, and the
// measured overlap is positive for a multi-chunk phase, zero for a
// single chunk, and bounded by min(net, compute).
func TestRunPipelinedOverlap(t *testing.T) {
	c, err := NewCluster("single", 4)
	if err != nil {
		t.Fatal(err)
	}
	q := c.NewQuery()
	defer q.Close()
	var order []int
	err = q.RunPipelined("shuffle", pipelineChunks(4, 1e6, float64(1<<28)), "", 0, func(k int) error {
		order = append(order, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range order {
		if k != i {
			t.Fatalf("consume order %v", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("consume order %v", order)
	}
	st := q.Finish()
	if len(st.Phases) != 1 || st.Phases[0].Chunks != 4 {
		t.Fatalf("phases: %+v", st.Phases)
	}
	if st.NetSeconds <= 0 || st.ComputeSeconds <= 0 {
		t.Fatalf("net=%v compute=%v", st.NetSeconds, st.ComputeSeconds)
	}
	if st.OverlapSeconds <= 0 {
		t.Fatalf("multi-chunk phase hid no compute: %+v", st)
	}
	min := st.NetSeconds
	if st.ComputeSeconds < min {
		min = st.ComputeSeconds
	}
	if st.OverlapSeconds > min+1e-12 {
		t.Fatalf("overlap %v exceeds min(net,compute)=%v", st.OverlapSeconds, min)
	}
	if got, want := st.WallSeconds(), st.NetSeconds+st.ComputeSeconds-st.OverlapSeconds; got != want {
		t.Fatalf("wall %v want %v", got, want)
	}

	// Single chunk: strictly sequential, no overlap.
	c2, _ := NewCluster("single", 4)
	q2 := c2.NewQuery()
	defer q2.Close()
	if err := q2.RunPipelined("shuffle", pipelineChunks(1, 1e6, float64(1<<28)), "", 0, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st2 := q2.Finish(); st2.OverlapSeconds != 0 || st2.ComputeSeconds <= 0 {
		t.Fatalf("single chunk: %+v", st2)
	}
}

// TestRunPipelinedRepeatable: a solo pipelined phase replays with
// bit-identical network accounting.
func TestRunPipelinedRepeatable(t *testing.T) {
	run := func() *QueryStats {
		c, _ := NewCluster("leafspine", 4)
		q := c.NewQuery()
		defer q.Close()
		if err := q.RunPipelined("shuffle", pipelineChunks(5, 2e6, float64(1<<27)), "", 0, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return q.Finish()
	}
	a, b := run(), run()
	if a.NetSeconds != b.NetSeconds || a.OverlapSeconds != b.OverlapSeconds || a.ComputeSeconds != b.ComputeSeconds {
		t.Fatalf("replay differs: %+v vs %+v", a, b)
	}
}

// TestRunPipelinedConsumeError: a failing consumer aborts the phase with
// its error and the in-flight goroutine is joined (the test would hang
// or trip the race detector otherwise).
func TestRunPipelinedConsumeError(t *testing.T) {
	c, _ := NewCluster("single", 4)
	q := c.NewQuery()
	defer q.Close()
	boom := errors.New("boom")
	err := q.RunPipelined("shuffle", pipelineChunks(3, 1e6, 0), "", 0, func(k int) error {
		if k == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestRunPipelinedCancelMidChunk: tripping the query's cancel token
// between chunks aborts the phase promptly.
func TestRunPipelinedCancelMidChunk(t *testing.T) {
	c, _ := NewCluster("single", 4)
	tok := relational.NewCancelToken()
	q := NewFabric(c).NewQueryQoS(tok, "", 0)
	defer q.Close()
	cancelErr := fmt.Errorf("query cancelled")
	n := 0
	err := q.RunPipelined("shuffle", pipelineChunks(4, 1e6, 0), "", 0, func(k int) error {
		n++
		tok.Cancel(cancelErr)
		return nil
	})
	if !errors.Is(err, cancelErr) {
		t.Fatalf("err = %v", err)
	}
	if n == 0 || n >= 4 {
		t.Fatalf("consumed %d chunks", n)
	}
}
