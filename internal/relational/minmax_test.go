package relational

import (
	"math"
	"testing"
)

// TestFloatMinMaxFoldsInTotalOrder: 48 rows of one key, the value 1
// except a NaN then a 0 at rows 16 and 17, in batches of 16. At Workers 2
// the second worker's partial opens the group with the NaN; Float MIN
// and MAX fold in IEEE 754 total order, so the NaN neither sticks to the
// head of that partial nor ties with the 1 the first partial holds when
// they merge: every worker count answers the row engine's MIN 0 and MAX
// NaN (a NaN sorts beyond +Inf by its positive sign).
func TestFloatMinMaxFoldsInTotalOrder(t *testing.T) {
	schema := Schema{{Name: "k", Type: Int}, {Name: "v", Type: Float}}
	rel := NewRelation("t", schema)
	for r := range 48 {
		v := 1.0
		switch r {
		case 16:
			v = math.NaN()
		case 17:
			v = 0
		}
		rel.MustAppend(Row{IntV(7), FloatV(v)})
	}
	aggs := []AggSpec{{Fn: MinAgg, Col: 1, Name: "lo"}, {Fn: MaxAgg, Col: 1, Name: "hi"}}
	ref, err := NewGroupAgg(NewScan(rel), []int{0}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	want := collectRows(t, ref)
	if len(want) != 1 || want[0][1].F != 0 || !math.IsNaN(want[0][2].F) {
		t.Fatalf("row engine answers %v, want [7 0 NaN]", want)
	}
	for _, workers := range []int{1, 2, 3} {
		op, err := NewBatchGroupAgg(cutBatches(rel, 16), []int{0}, aggs, workers)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalRows(t, want, collectRows(t, RowsOf(op)))
	}
}
