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
