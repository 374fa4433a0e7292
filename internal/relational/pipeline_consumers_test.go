package relational

import (
	"testing"
)

// TestPrebuiltJoinParity: a join probing an incrementally appended
// HashBuild produces row-for-row what the streaming build produces, at
// several append granularities.
func TestPrebuiltJoinParity(t *testing.T) {
	dim := randRel(8, 900)
	fact := randRel(7, 3*BatchSize+57)
	want := collectRows(t, RowsOf(mustJoin(t, NewBatchScan(dim), NewBatchScan(fact), 0, 0, nil)))
	for _, chunk := range []int{1, 37, 256, 10000} {
		pre, err := NewHashBuild(dim.Schema, 0)
		if err != nil {
			t.Fatal(err)
		}
		for start := 0; start < len(dim.Rows); start += chunk {
			end := start + chunk
			if end > len(dim.Rows) {
				end = len(dim.Rows)
			}
			pre.Append(dim.Rows[start:end])
		}
		jn, err := NewBatchHashJoinPrebuilt(pre, NewBatchScan(fact), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := collectRows(t, RowsOf(jn))
		requireSameRows(t, want, got)
	}
}

// TestPrebuiltJoinSharedAcrossProbes: one sealed build table probed by
// several joins concurrently via NewExchange partitions — the pipelined
// broadcast case.
func TestPrebuiltJoinSharedAcrossProbes(t *testing.T) {
	dim := randRel(8, 400)
	fact := randRel(7, 2*BatchSize)
	pre, err := NewHashBuild(dim.Schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	pre.Append(dim.Rows)
	want := collectRows(t, RowsOf(mustJoin(t, NewBatchScan(dim), NewBatchScan(fact), 0, 0, nil)))
	done := make(chan []Row, 3)
	for i := 0; i < 3; i++ {
		go func() {
			jn, err := NewBatchHashJoinPrebuilt(pre, NewBatchScan(fact), 0, 4)
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			rel, err := Collect(RowsOf(NewExchange(jn, 4)), "out")
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			done <- rel.Rows
		}()
	}
	for i := 0; i < 3; i++ {
		if rows := <-done; rows != nil {
			requireSameRows(t, want, rows)
		}
	}
}

// TestPrebuiltJoinBudgetGrace: a prebuilt table that overflows the
// budget grace-partitions exactly like the streaming build, with
// identical rows and a recorded spill.
func TestPrebuiltJoinBudgetGrace(t *testing.T) {
	dim := randRel(8, 900)
	fact := randRel(7, 3*BatchSize)
	want := collectRows(t, RowsOf(mustJoin(t, NewBatchScan(dim), NewBatchScan(fact), 0, 0, nil)))
	pre, err := NewHashBuild(dim.Schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	pre.Append(dim.Rows)
	jn, err := NewBatchHashJoinPrebuilt(pre, NewBatchScan(fact), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	jn.SetBudget(tinyBudget(256))
	got := collectRows(t, RowsOf(jn))
	requireSameRows(t, want, got)
	if sp := jn.Stats().Spill; sp == nil || sp.SpilledBytes <= 0 {
		t.Fatalf("budgeted prebuilt join did not spill: %+v", sp)
	}
}

// TestPartialAggSplitChunks: splitting a partial and folding the chunks
// back in order reconstructs it exactly — same emission rows, same ord,
// and chunk encoded bytes summing to the whole.
func TestPartialAggSplitChunks(t *testing.T) {
	rel := randRel(5, 3*BatchSize+11)
	aggs := []AggSpec{{Fn: CountAgg, Col: 0}, {Fn: SumAgg, Col: 2}, {Fn: MinAgg, Col: 3}}
	build := func() *PartialAgg {
		p := NewPartialAgg([]int{1}, aggs)
		op := NewBatchScan(rel)
		for {
			b, err := op.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				return p
			}
			if err := p.ObserveBatch(b, -1); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := build()
	schema := Schema{rel.Schema[1], {Name: "c", Type: Int}, {Name: "s", Type: Int}, {Name: "m", Type: Int}}
	emit := func(p *PartialAgg) []Row {
		cols, n := p.EmitCols(schema, true)
		return appendRows(nil, cols, n)
	}
	want := emit(ref)
	for _, maxGroups := range []int{1, 3, 1000} {
		p := build()
		wantBytes := p.EncodedBytes()
		subs := p.SplitChunks(maxGroups)
		if maxGroups >= p.Groups() && len(subs) != 1 {
			t.Fatalf("maxGroups=%d: %d subs", maxGroups, len(subs))
		}
		gotBytes, gotOrd := 0.0, int64(0)
		for _, s := range subs {
			gotBytes += s.EncodedBytes()
			gotOrd += s.ord
		}
		if gotBytes != wantBytes {
			t.Fatalf("maxGroups=%d: chunk bytes %v want %v", maxGroups, gotBytes, wantBytes)
		}
		if gotOrd != ref.Rows() {
			t.Fatalf("maxGroups=%d: ord %d want %d", maxGroups, gotOrd, ref.Rows())
		}
		acc := NewPartialAgg([]int{1}, aggs)
		for _, s := range subs {
			acc.MergeFrom(s)
		}
		requireSameRows(t, want, emit(acc))
	}
}
