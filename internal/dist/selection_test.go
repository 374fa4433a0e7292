package dist

import (
	"reflect"
	"testing"

	"repro/internal/relational"
)

// denseOp hands out its child's batches gathered (Dense): the twin of a
// stream of selected batches.
type denseOp struct{ relational.BatchOp }

func (o denseOp) NextBatch() (*relational.Batch, error) {
	b, err := o.BatchOp.NextBatch()
	if b != nil {
		b = b.Dense()
	}
	return b, err
}

// TestSelectedShardStreamSinks: a shard fragment's filter hands the sinks
// selected batches; DrainSink gathers them once and PartialAggSink folds
// them in place, and both answer — rows, seq-tagged groups and encoded
// bytes — as they do over the same stream gathered, at Workers 1 and 2.
func TestSelectedShardStreamSinks(t *testing.T) {
	const n = 5000
	schema := relational.Schema{{Name: "k", Type: relational.Int}, {Name: "v", Type: relational.Int},
		{Name: "f", Type: relational.Float}, {Name: "s", Type: relational.String}, {Name: SeqColName, Type: relational.Int}}
	k, v, seq := make([]int64, n), make([]int64, n), make([]int64, n)
	f, s := make([]float64, n), make([]string, n)
	for r := range n {
		k[r], v[r], seq[r], f[r], s[r] = int64(r*31%57), int64(r*r%101-50), int64(r), float64(r%9)/4, []string{"EU", "NA", "APAC"}[r%3]
	}
	rel := relational.NewColumnRelation("shard", schema, []relational.Vector{
		{T: relational.Int, Ints: k}, {T: relational.Int, Ints: v}, {T: relational.Float, Floats: f},
		relational.StringVector(s), {T: relational.Int, Ints: seq},
	}, n)
	frag := func(dense bool) relational.BatchOp {
		var op relational.BatchOp = relational.NewBatchFilter(relational.NewBatchScan(rel), nil,
			relational.Cmp(relational.OpGt, relational.ColumnExpr(1, relational.Int), relational.Const(relational.IntV(0))))
		if dense {
			op = denseOp{op}
		}
		return op
	}
	aggs := []relational.AggSpec{{Fn: relational.CountAgg, Col: -1, Name: "n"}, {Fn: relational.SumAgg, Col: 1, Name: "sv"}, {Fn: relational.SumAgg, Col: 2, Name: "sf"}}
	for _, groupCols := range [][]int{{0}, {3}, {3, 0}} {
		out, err := relational.AggOutputSchema(schema, groupCols, aggs)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			want, err := PartialAggSink(groupCols, aggs, 4, workers, nil, nil)(0, frag(true))
			if err != nil {
				t.Fatal(err)
			}
			got, err := PartialAggSink(groupCols, aggs, 4, workers, nil, nil)(0, frag(false))
			if err != nil {
				t.Fatal(err)
			}
			wc, wn := want.EmitCols(out, true)
			gc, gn := got.EmitCols(out, true)
			if got.Rows() != want.Rows() || gn != wn || !reflect.DeepEqual(gc, wc) || got.EncodedBytes() != want.EncodedBytes() {
				t.Fatalf("groups %v, workers %d: partial over selected batches differs from the dense twin's", groupCols, workers)
			}
		}
	}
	for _, workers := range []int{1, 2} {
		want, err := DrainSink("out", workers)(0, frag(true))
		if err != nil {
			t.Fatal(err)
		}
		got, err := DrainSink("out", workers)(0, frag(false))
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() == n || !reflect.DeepEqual(got.RowView(), want.RowView()) || got.EncodedBytes() != want.EncodedBytes() {
			t.Fatalf("workers %d: drained %d rows, dense twin %d", workers, got.Len(), want.Len())
		}
	}
}
