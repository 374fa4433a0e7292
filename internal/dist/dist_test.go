package dist

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/relational"
)

func testRel(n int) *relational.Relation {
	rel := relational.NewRelation("t", relational.Schema{
		{Name: "k", Type: relational.Int},
		{Name: "s", Type: relational.String},
	})
	for i := 0; i < n; i++ {
		rel.MustAppend(relational.Row{relational.IntV(int64(i % 7)), relational.StringV("v")})
	}
	return rel
}

// TestShardRelationRange: contiguous ranges, all rows tagged with their
// global index, shard-local order ascending.
func TestShardRelationRange(t *testing.T) {
	rel := testRel(100)
	st := ShardRelation(rel, 8, RangeShard, -1)
	if st.SeqCol() != 2 {
		t.Fatalf("seq col = %d", st.SeqCol())
	}
	total, next := 0, int64(0)
	for _, sh := range st.Relations() {
		for _, row := range sh.RowView() {
			if row[2].I != next {
				t.Fatalf("range sharding must keep global order: got seq %d want %d", row[2].I, next)
			}
			next++
			total++
		}
	}
	if total != 100 {
		t.Fatalf("lost rows: %d", total)
	}
}

// TestRangeShardSeqWindowsOneIota: every RangeShard placement's #seq
// columns hold what a fresh iota per placement held — shard s has rows
// [⌈s·n/S⌉, ⌈(s+1)·n/S⌉) — as clipped windows of one shared iota, across
// tables that grow past it and shrink below it.
func TestRangeShardSeqWindowsOneIota(t *testing.T) {
	var shared *int64 // the iota the last placement windowed
	grownTo := 0
	for _, n := range []int{0, 1, 7, 1000, 3, 5000, 100, 4097} {
		rel := testRel(n)
		for _, shards := range []int{1, 3, 4, 8} {
			st := ShardRelation(rel, shards, RangeShard, -1)
			for s, sh := range st.Relations() {
				seq := sh.Columnar()[st.SeqCol()].Ints
				lo, hi := (s*n+shards-1)/shards, ((s+1)*n+shards-1)/shards
				want := make([]int64, 0, hi-lo)
				for i := lo; i < hi; i++ {
					want = append(want, int64(i))
				}
				if !slices.Equal(seq, want) || cap(seq) != len(seq) {
					t.Fatalf("n=%d shards=%d shard %d: #seq %v (cap %d), want %v", n, shards, s, seq, cap(seq), want)
				}
				if s == 0 && len(seq) > 0 {
					if shared != nil && n <= grownTo && &seq[0] != shared {
						t.Fatalf("n=%d shards=%d: #seq is a fresh array, not the shared iota", n, shards)
					}
					shared, grownTo = &seq[0], max(grownTo, n)
				}
			}
		}
	}
	// Placements racing to grow the iota each still read their own rows.
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 10000 << g
			st := ShardRelation(testRel(n), 3, RangeShard, -1)
			next := int64(0)
			for _, sh := range st.Relations() {
				for _, v := range sh.Columnar()[st.SeqCol()].Ints {
					if v != next {
						t.Errorf("n=%d: #seq %d, want %d", n, v, next)
						return
					}
					next++
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardRelationHash: equal keys co-locate and per-shard seqs ascend.
func TestShardRelationHash(t *testing.T) {
	rel := testRel(100)
	st := ShardRelation(rel, 4, HashShard, 0)
	keyShard := map[int64]int{}
	total := 0
	for si, sh := range st.Relations() {
		last := int64(-1)
		for _, row := range sh.RowView() {
			if prev, ok := keyShard[row[0].I]; ok && prev != si {
				t.Fatalf("key %d split across shards %d and %d", row[0].I, prev, si)
			}
			keyShard[row[0].I] = si
			if row[2].I <= last {
				t.Fatalf("shard %d not seq-ascending: %d after %d", si, row[2].I, last)
			}
			last = row[2].I
			total++
		}
	}
	if total != 100 {
		t.Fatalf("lost rows: %d", total)
	}
}

// TestMergeBySeq reconstructs the original relation from its shards.
func TestMergeBySeq(t *testing.T) {
	rel := testRel(57)
	for _, strat := range []Strategy{RangeShard, HashShard} {
		st := ShardRelation(rel, 5, strat, 0)
		merged := MergeBySeq("m", st.Relations(), st.SeqCol(), true)
		if merged.Len() != 57 || len(merged.Schema) != 2 {
			t.Fatalf("%v: merged %d rows, %d cols", strat, merged.Len(), len(merged.Schema))
		}
		for i, row := range merged.RowView() {
			if row[0].I != rel.Rows[i][0].I {
				t.Fatalf("%v: row %d differs", strat, i)
			}
		}
	}
}

// TestRepartition: buckets by hash, destinations seq-sorted, transfers
// only for rows that change shards.
func TestRepartition(t *testing.T) {
	rel := testRel(80)
	st := ShardRelation(rel, 4, RangeShard, -1)
	dests, transfers := Repartition(st.Relations(), 0, st.SeqCol())
	total := 0
	for d, rel2 := range dests {
		last := int64(-1)
		for _, row := range rel2.RowView() {
			if got := int(refHashValue(row[0]) % 4); got != d {
				t.Fatalf("row with key %d landed on shard %d, want %d", row[0].I, d, got)
			}
			if row[2].I <= last {
				t.Fatalf("dest %d not seq-sorted", d)
			}
			last = row[2].I
			total++
		}
	}
	if total != 80 {
		t.Fatalf("lost rows: %d", total)
	}
	for _, tr := range transfers {
		if tr.Src == tr.Dst || tr.Bytes <= 0 {
			t.Fatalf("bogus transfer %+v", tr)
		}
	}
}

// TestBroadcast: the merged build side is the original serial order and
// every non-empty shard ships to every other shard.
func TestBroadcast(t *testing.T) {
	rel := testRel(40)
	st := ShardRelation(rel, 4, HashShard, 0)
	merged, transfers := Broadcast(st.Relations(), st.SeqCol(), true)
	if merged.Len() != 40 {
		t.Fatalf("merged %d rows", merged.Len())
	}
	for i, row := range merged.RowView() {
		if row[0].I != rel.Rows[i][0].I {
			t.Fatalf("broadcast build side out of order at %d", i)
		}
	}
	nonEmpty := 0
	for _, sh := range st.Relations() {
		if sh.Len() > 0 {
			nonEmpty++
		}
	}
	if want := nonEmpty * 3; len(transfers) != want {
		t.Fatalf("got %d transfers, want %d", len(transfers), want)
	}
}

// TestClusterPhases: every topology hosts the cluster, routes flows and
// reports a positive makespan and link loads.
func TestClusterPhases(t *testing.T) {
	for _, name := range Topologies {
		c, err := NewCluster(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		if c.Shards() != 4 {
			t.Fatalf("%s: %d shards", name, c.Shards())
		}
		if sec := c.pathSeconds(0, Coordinator, 1e6); sec <= 0 {
			t.Fatalf("%s: path pricing returned %v", name, sec)
		}
		qr := c.NewQuery()
		if err := qr.RunPhase("shuffle", []Transfer{
			{Src: 0, Dst: 1, Bytes: 1e6},
			{Src: 1, Dst: 2, Bytes: 2e6},
			{Src: 3, Dst: 3, Bytes: 1e6}, // same host: skipped
			{Src: 2, Dst: 0, Bytes: 0},   // empty: skipped
		}); err != nil {
			t.Fatal(err)
		}
		if err := qr.RunPhase("gather", []Transfer{
			{Src: 0, Dst: Coordinator, Bytes: 1e5},
			{Src: 2, Dst: Coordinator, Bytes: 1e5},
			{Src: 3, Dst: Coordinator, Bytes: 1e5},
		}); err != nil {
			t.Fatal(err)
		}
		s := qr.Finish()
		if s.Flows != 5 || s.BytesShuffled != 3.3e6 {
			t.Fatalf("%s: flows=%d bytes=%v", name, s.Flows, s.BytesShuffled)
		}
		if s.NetSeconds <= 0 || len(s.Phases) != 2 || s.Phases[0].Seconds <= 0 {
			t.Fatalf("%s: bad phase accounting: %+v", name, s)
		}
		if s.MaxLinkUtil <= 0 || len(s.Links) == 0 {
			t.Fatalf("%s: missing link accounting", name)
		}
	}
	if _, err := NewCluster("nonsense", 2); err == nil {
		t.Fatal("expected unknown-topology error")
	}
}

// TestRunPartialAggs: per-shard partials merged by seq reproduce the
// global first-seen group order.
func TestRunPartialAggs(t *testing.T) {
	rel := testRel(63) // keys cycle 0..6: first-seen order 0,1,2,...,6
	st := ShardRelation(rel, 4, HashShard, 0)
	frags := make([]relational.BatchOp, len(st.Relations()))
	for i, sh := range st.Relations() {
		frags[i] = relational.NewBatchScan(sh)
	}
	aggs := []relational.AggSpec{{Fn: relational.CountAgg, Col: -1, Name: "n"}}
	partials, err := RunPartialAggs(frags, []int{0}, aggs, st.SeqCol(), 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged := partials[0]
	for _, pa := range partials[1:] {
		merged.MergeFrom(pa)
	}
	schema, err := relational.AggOutputSchema(relational.Schema{{Name: "k", Type: relational.Int}}, []int{0}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	cols, n := merged.EmitCols(schema, true)
	rows := relational.NewColumnRelation("groups", schema, cols, n).RowView()
	if len(rows) != 7 {
		t.Fatalf("got %d groups", len(rows))
	}
	for i, row := range rows {
		if row[0].I != int64(i) || row[1].I != 9 {
			t.Fatalf("group %d: got key %d count %d", i, row[0].I, row[1].I)
		}
	}
}

// endlessOp yields the same one-row batch forever; it ends only when
// something upstream of it — the round's cancel guard — ends the stream.
// The first batch it hands out is announced on started.
type endlessOp struct {
	schema  relational.Schema
	started chan<- struct{}
	once    sync.Once
}

func (o *endlessOp) Schema() relational.Schema { return o.schema }
func (o *endlessOp) Stats() relational.OpStats { return relational.OpStats{} }
func (o *endlessOp) NextBatch() (*relational.Batch, error) {
	o.once.Do(func() { o.started <- struct{}{} })
	one := relational.Vector{T: relational.Int, Ints: []int64{1}}
	return relational.BatchOf(o.schema, []relational.Vector{one, one}, 1), nil
}

// failingOp fails its first pull, once every sibling is streaming.
type failingOp struct {
	endlessOp
	siblings <-chan struct{}
	n        int
	err      error
}

func (o *failingOp) NextBatch() (*relational.Batch, error) {
	for i := 0; i < o.n; i++ {
		<-o.siblings
	}
	return nil, o.err
}

// TestRunShardsFirstErrorStopsSiblings: one shard failing fails the round
// with that shard's error, and its siblings — endless streams that only
// the round's cancel guard can end — stop at their next batch boundary
// instead of draining their input, through both sinks (the partial-
// aggregate one drains its stream through partitions of its own).
func TestRunShardsFirstErrorStopsSiblings(t *testing.T) {
	schema := relational.Schema{{Name: "k", Type: relational.Int}, {Name: SeqColName, Type: relational.Int}}
	boom := errors.New("shard 2 failed")
	frags := func() []relational.BatchOp {
		started := make(chan struct{}, 3)
		out := make([]relational.BatchOp, 4)
		for s := range out {
			out[s] = &endlessOp{schema: schema, started: started}
		}
		out[2] = &failingOp{endlessOp: endlessOp{schema: schema}, siblings: started, n: 3, err: boom}
		return out
	}
	if _, err := RunFragments("frag", frags(), 1); !errors.Is(err, boom) {
		t.Fatalf("drain round: %v, want the failing shard's error", err)
	}
	aggs := []relational.AggSpec{{Fn: relational.CountAgg, Col: 0}}
	if _, err := RunPartialAggs(frags(), []int{0}, aggs, 1, 2, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("partial-aggregate round: %v, want the failing shard's error", err)
	}
}
