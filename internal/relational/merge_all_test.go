package relational

import (
	"math/rand"
	"testing"
)

// TestMergeAllMatchesMergeFrom: MergeAll folds partials into the partial
// that saw each group first instead of growing the first one, and must
// leave exactly what MergeFrom-ing them one by one does — same groups in
// the same order, bit-identical float sums, the same extremes, tags and
// arrival count — whatever the key shape, with or without seq tags, and
// with partials that saw nothing.
func TestMergeAllMatchesMergeFrom(t *testing.T) {
	rel := randRel(77, 3*BatchSize+300)
	aggs := []AggSpec{
		{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 2, Name: "s"}, {Fn: AvgAgg, Col: 2, Name: "a"},
		{Fn: MinAgg, Col: 3, Name: "lo"}, {Fn: MaxAgg, Col: 1, Name: "hi"}, {Fn: SumAgg, Col: 3, Name: "si"},
	}
	aggOut := Schema{{Name: "n", Type: Int}, {Name: "s", Type: Float}, {Name: "a", Type: Float},
		{Name: "lo", Type: Int}, {Name: "hi", Type: String}, {Name: "si", Type: Int}}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		groupCols := [][]int{{1}, {3}, {1, 3}, {2}, {}}[seed%5]
		seqCol := -1
		if seed%2 == 1 {
			seqCol = 0 // id: a global sequence tag
		}
		// Random windows of the table, each dealt to a random partial;
		// some partials see nothing.
		k := 1 + rng.Intn(5)
		var deal [][2]int
		var to []int
		for lo := 0; lo < rel.Len(); {
			hi := min(rel.Len(), lo+1+rng.Intn(700))
			deal, to = append(deal, [2]int{lo, hi}), append(to, rng.Intn(k))
			lo = hi
		}
		build := func() []*PartialAgg {
			parts := make([]*PartialAgg, k)
			for i := range parts {
				parts[i] = NewPartialAgg(groupCols, aggs)
			}
			for w, win := range deal {
				op := NewBatchScan(rel.Slice(win[0], win[1]))
				for {
					b, err := op.NextBatch()
					if err != nil {
						t.Fatal(err)
					}
					if b == nil {
						break
					}
					if err := parts[to[w]].ObserveBatch(b, seqCol); err != nil {
						t.Fatal(err)
					}
				}
			}
			return parts
		}
		want := build()
		for _, o := range want[1:] {
			want[0].MergeFrom(o)
		}
		got := MergeAll(build())
		schema := Schema{}
		for _, c := range groupCols {
			schema = append(schema, rel.Schema[c])
		}
		schema = append(schema, aggOut...)
		if got.Rows() != want[0].Rows() || got.Groups() != want[0].Groups() {
			t.Fatalf("seed %d: %d rows / %d groups, MergeFrom %d / %d", seed, got.Rows(), got.Groups(), want[0].Rows(), want[0].Groups())
		}
		for _, bySeq := range []bool{false, true} {
			wc, wn := want[0].EmitCols(schema, bySeq)
			gc, gn := got.EmitCols(schema, bySeq)
			requireSameRows(t, appendRows(nil, wc, wn), appendRows(nil, gc, gn))
		}
	}
}

// TestEmitSeqColsIsSeqOrder: EmitSeqCols renders exactly EmitCols(bySeq)'s
// rows, each group's first seq tag trailing it — ascending, and the tag of
// a row that carries the group's key — including over a merge whose group
// ids are out of seq order (windows dealt to partials out of order). An
// empty partial emits no row, typed columns and all, even when global.
func TestEmitSeqColsIsSeqOrder(t *testing.T) {
	rel := randRel(78, 3*BatchSize+300)
	rows := rel.RowView()
	aggs := []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 2, Name: "s"}, {Fn: MaxAgg, Col: 3, Name: "hi"}}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		groupCols := [][]int{{1}, {3}, {1, 3}}[seed%3]
		schema := Schema{}
		for _, c := range groupCols {
			schema = append(schema, rel.Schema[c])
		}
		schema = append(schema, Schema{{Name: "n", Type: Int}, {Name: "s", Type: Float}, {Name: "hi", Type: Int}}...)
		parts := make([]*PartialAgg, 1+rng.Intn(4))
		for i := range parts {
			parts[i] = NewPartialAgg(groupCols, aggs)
		}
		for lo := 0; lo < rel.Len(); {
			hi := min(rel.Len(), lo+1+rng.Intn(500))
			b, err := NewBatchScan(rel.Slice(lo, hi)).NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if err := parts[rng.Intn(len(parts))].ObserveBatch(b, 0); err != nil {
				t.Fatal(err)
			}
			lo += b.Len()
		}
		merged := MergeAll(parts)
		wc, wn := merged.EmitCols(schema, true)
		gc, gn := merged.EmitSeqCols(schema)
		if len(gc) != len(schema)+1 || gc[len(schema)].T != Int {
			t.Fatalf("seed %d: %d columns, want %d and a trailing Int seq", seed, len(gc), len(schema)+1)
		}
		requireSameRows(t, appendRows(nil, wc, wn), appendRows(nil, gc[:len(schema)], gn))
		seqs := gc[len(schema)].Ints
		for g := range gn {
			if g > 0 && seqs[g] <= seqs[g-1] {
				t.Fatalf("seed %d: group %d tagged %d after %d", seed, g, seqs[g], seqs[g-1])
			}
			for k, c := range groupCols {
				if gc[k].Value(g) != rows[seqs[g]][c] {
					t.Fatalf("seed %d: group %d key %v, but row %d holds %v", seed, g, gc[k].Value(g), seqs[g], rows[seqs[g]][c])
				}
			}
		}
	}
	for _, groupCols := range [][]int{{0}, {}} {
		cols, n := NewPartialAgg(groupCols, []AggSpec{{Fn: CountAgg, Col: -1}}).EmitSeqCols(Schema{{Name: "n", Type: Int}})
		if n != 0 || len(cols) != 2 || cols[0].T != Int || cols[1].T != Int || cols[0].Len() != 0 {
			t.Fatalf("group cols %v: an empty partial emitted %d rows over %v", groupCols, n, cols)
		}
	}
}
