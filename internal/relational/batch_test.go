package relational

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kernels"
)

// randRel builds a deterministic pseudo-random relation with Int, String
// and Float columns sized to cross morsel boundaries when n > BatchSize.
func randRel(seed int64, n int) *Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := NewRelation("t", Schema{
		{Name: "id", Type: Int},
		{Name: "grp", Type: String},
		{Name: "val", Type: Float},
		{Name: "qty", Type: Int},
	})
	groups := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < n; i++ {
		rel.MustAppend(Row{
			IntV(int64(i)),
			StringV(groups[rng.Intn(len(groups))]),
			FloatV(rng.Float64() * 100),
			IntV(int64(rng.Intn(50))),
		})
	}
	return rel
}

func collectRows(t *testing.T, op Op) []Row {
	t.Helper()
	rel, err := Collect(op, "out")
	if err != nil {
		t.Fatal(err)
	}
	return rel.Rows
}

func requireSameRows(t *testing.T, want, got []Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row counts differ: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("row %d arity differs: want %d, got %d", i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			w, g := want[i][j], got[i][j]
			if w.T != g.T || w.I != g.I || w.F != g.F || w.S != g.S {
				t.Fatalf("row %d col %d differs: want %v (%v), got %v (%v)", i, j, w, w.T, g, g.T)
			}
		}
	}
}

// Sizes chosen to cover empty, single-row, single-morsel, exact-boundary
// and multi-morsel relations.
var batchSizes = []int{0, 1, 7, BatchSize, BatchSize + 1, 3*BatchSize + 100}

func TestBatchScanRoundTrip(t *testing.T) {
	for _, n := range batchSizes {
		rel := randRel(int64(n)+1, n)
		want := collectRows(t, NewScan(rel))
		got := collectRows(t, RowsOf(NewBatchScan(rel)))
		requireSameRows(t, want, got)
	}
}

func TestBatchScanExchangeKeepsOrder(t *testing.T) {
	for _, n := range batchSizes {
		for _, workers := range []int{1, 2, 4, 7} {
			rel := randRel(int64(n)+2, n)
			want := collectRows(t, NewScan(rel))
			got := collectRows(t, RowsOf(NewExchange(NewBatchScan(rel), workers)))
			requireSameRows(t, want, got)
		}
	}
}

func TestBatchFilterRangesAndPredicate(t *testing.T) {
	pred := Cmp(OpLt, ColumnExpr(2, Float), Const(FloatV(60)))
	rng := []ColRange{{Col: 3, Lo: 10, HasLo: true, Hi: 40, HasHi: true}}
	for _, n := range batchSizes {
		rel := randRel(int64(n)+3, n)
		want := collectRows(t, NewFilter(NewScan(rel), func(r Row) (bool, error) {
			return r[3].I >= 10 && r[3].I <= 40 && r[2].F < 60, nil
		}))
		got := collectRows(t, RowsOf(NewExchange(NewBatchFilter(NewBatchScan(rel), rng, pred), 4)))
		requireSameRows(t, want, got)
	}
}

func TestBatchFilterRangeOnly(t *testing.T) {
	rel := randRel(11, 2*BatchSize+5)
	// Unbounded-side ranges exercise the inclusive encoding.
	got := collectRows(t, RowsOf(NewBatchFilter(NewBatchScan(rel), []ColRange{{Col: 3, Lo: 25, HasLo: true}}, nil)))
	want := collectRows(t, NewFilter(NewScan(rel), func(r Row) (bool, error) { return r[3].I >= 25, nil }))
	requireSameRows(t, want, got)
}

func TestBatchProjectPicksAndExprs(t *testing.T) {
	schema := Schema{{Name: "id", Type: Int}, {Name: "double", Type: Float}}
	exprFn := func(r Row) (Value, error) { return FloatV(r[2].F * 2), nil }
	for _, n := range batchSizes {
		rel := randRel(int64(n)+4, n)
		wantOp, err := NewProject(NewScan(rel), schema, []Projector{
			func(r Row) (Value, error) { return r[0], nil }, exprFn,
		})
		if err != nil {
			t.Fatal(err)
		}
		gotOp, err := NewBatchProject(NewBatchScan(rel), schema, []ProjExpr{Pick(0), Expr(exprFn)})
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, collectRows(t, wantOp), collectRows(t, RowsOf(NewExchange(gotOp, 4))))
	}
}

func TestBatchHashJoinMatchesRowJoin(t *testing.T) {
	dim := NewRelation("dim", Schema{{Name: "qty", Type: Int}, {Name: "label", Type: String}})
	for q := 0; q < 50; q += 2 { // half the keys match, with one dup key
		dim.MustAppend(Row{IntV(int64(q)), StringV(fmt.Sprintf("label-%d", q))})
		if q == 10 {
			dim.MustAppend(Row{IntV(int64(q)), StringV("label-10-dup")})
		}
	}
	for _, n := range batchSizes {
		fact := randRel(int64(n)+5, n)
		wantOp, err := NewHashJoin(NewScan(dim), NewScan(fact), 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		gotOp, err := NewBatchHashJoin(NewBatchScan(dim), NewBatchScan(fact), 0, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, collectRows(t, wantOp), collectRows(t, RowsOf(NewExchange(gotOp, 4))))
	}
}

func TestBatchHashJoinStringKey(t *testing.T) {
	dim := NewRelation("dim", Schema{{Name: "grp", Type: String}, {Name: "rank", Type: Int}})
	for i, g := range []string{"a", "c", "e"} {
		dim.MustAppend(Row{StringV(g), IntV(int64(i))})
	}
	fact := randRel(6, 2*BatchSize+9)
	wantOp, err := NewHashJoin(NewScan(dim), NewScan(fact), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotOp, err := NewBatchHashJoin(NewBatchScan(dim), NewBatchScan(fact), 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, collectRows(t, wantOp), collectRows(t, RowsOf(NewExchange(gotOp, 3))))
}

func TestBatchGroupAggMatchesRowAgg(t *testing.T) {
	aggs := []AggSpec{
		{Fn: CountAgg, Col: -1, Name: "n"},
		{Fn: SumAgg, Col: 3, Name: "sq"},
		{Fn: MinAgg, Col: 3, Name: "lo"},
		{Fn: MaxAgg, Col: 3, Name: "hi"},
	}
	for _, n := range batchSizes {
		rel := randRel(int64(n)+7, n)
		wantOp, err := NewGroupAgg(NewScan(rel), []int{1}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		gotOp, err := NewBatchGroupAgg(NewBatchScan(rel), []int{1}, aggs, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, collectRows(t, wantOp), collectRows(t, RowsOf(gotOp)))
	}
}

func TestBatchGlobalAggFastPathAndEmpty(t *testing.T) {
	aggs := []AggSpec{
		{Fn: CountAgg, Col: -1, Name: "n"},
		{Fn: SumAgg, Col: 0, Name: "s"},
		{Fn: MinAgg, Col: 0, Name: "lo"},
		{Fn: MaxAgg, Col: 0, Name: "hi"},
	}
	for _, n := range []int{0, 1, 3 * BatchSize} {
		rel := randRel(int64(n)+8, n)
		wantOp, err := NewGroupAgg(NewScan(rel), nil, aggs)
		if err != nil {
			t.Fatal(err)
		}
		gotOp, err := NewBatchGroupAgg(NewBatchScan(rel), nil, aggs, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := collectRows(t, wantOp)
		got := collectRows(t, RowsOf(gotOp))
		requireSameRows(t, want, got)
		if len(got) != 1 {
			t.Fatalf("global aggregate must emit exactly one row, got %d", len(got))
		}
	}
}

func TestBatchGroupAggStringMinMax(t *testing.T) {
	rel := randRel(9, BatchSize+33)
	aggs := []AggSpec{{Fn: MinAgg, Col: 1, Name: "lo"}, {Fn: MaxAgg, Col: 1, Name: "hi"}}
	wantOp, err := NewGroupAgg(NewScan(rel), nil, aggs)
	if err != nil {
		t.Fatal(err)
	}
	gotOp, err := NewBatchGroupAgg(NewBatchScan(rel), nil, aggs, 2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, collectRows(t, wantOp), collectRows(t, RowsOf(gotOp)))
	if gotOp.Schema()[0].Type != String {
		t.Fatalf("min over string column must have String schema, got %v", gotOp.Schema()[0].Type)
	}
}

func TestBatchSortMatchesRowSort(t *testing.T) {
	cases := [][]SortKey{
		{{Col: 3}},                       // single Int key → radix path
		{{Col: 3, Desc: true}},           // descending radix
		{{Col: 2, Desc: true}},           // float key → comparison path
		{{Col: 1}, {Col: 3, Desc: true}}, // multi-key
	}
	for _, keys := range cases {
		for _, n := range batchSizes {
			rel := randRel(int64(n)+10, n)
			wantOp, err := NewSort(NewScan(rel), keys)
			if err != nil {
				t.Fatal(err)
			}
			gotOp, err := NewBatchSort(NewBatchScan(rel), keys, 4)
			if err != nil {
				t.Fatal(err)
			}
			// Stability: id column (untouched by the keys) disambiguates;
			// requireSameRows checks every cell so stability mismatches
			// surface as reordered ids among equal keys.
			requireSameRows(t, collectRows(t, wantOp), collectRows(t, RowsOf(gotOp)))
		}
	}
}

func TestBatchLimitMatchesRowLimit(t *testing.T) {
	for _, limit := range []int{0, 1, BatchSize, BatchSize + 7, 1 << 20} {
		rel := randRel(int64(limit)+11, 2*BatchSize+77)
		want := collectRows(t, NewLimit(NewScan(rel), limit))
		got := collectRows(t, RowsOf(NewBatchLimit(NewExchange(NewBatchScan(rel), 4), limit)))
		requireSameRows(t, want, got)
	}
}

func TestBatchFilterPredicateErrorPropagates(t *testing.T) {
	rel := randRel(12, 2*BatchSize)
	// val / (qty - qty) > 0 divides by zero on every row.
	zero := Arith(kernels.Sub, ColumnExpr(3, Int), ColumnExpr(3, Int))
	pred := Cmp(OpGt, Arith(kernels.Div, ColumnExpr(2, Float), zero), Const(IntV(0)))
	f := NewBatchFilter(NewBatchScan(rel), nil, pred)
	if _, err := Collect(RowsOf(NewExchange(f, 4)), "x"); err != ErrDivisionByZero {
		t.Fatalf("expected predicate error, got %v", err)
	}
}

func TestBatchAggSumOverStringErrors(t *testing.T) {
	rel := randRel(13, 2*BatchSize)
	g, err := NewBatchGroupAgg(NewBatchScan(rel), nil, []AggSpec{{Fn: SumAgg, Col: 1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(RowsOf(g), "x"); err == nil {
		t.Fatal("SUM(string) must fail at execution")
	}
}

func TestBatchStatsCountRows(t *testing.T) {
	rel := randRel(14, 3*BatchSize)
	scan := NewBatchScan(rel)
	f := NewBatchFilter(scan, []ColRange{{Col: 3, Lo: 0, HasLo: true, Hi: 24, HasHi: true}}, nil)
	out := collectRows(t, RowsOf(NewExchange(f, 4)))
	if got := scan.Stats().RowsOut; got != rel.Len() {
		t.Fatalf("scan stats = %d, want %d", got, rel.Len())
	}
	if got := f.Stats().RowsOut; got != len(out) {
		t.Fatalf("filter stats = %d, want %d", got, len(out))
	}
}

// TestBuildNsOnlyOnBreakers: OpStats.BuildNs is the host time an operator
// spends building state before its first batch. On non-empty input the
// sort, the top-k (with and without a failed reservation), the group-by
// and the join — its table, with or without a budget — report some; the
// streaming scan, filter, projection and limit report none.
func TestBuildNsOnlyOnBreakers(t *testing.T) {
	rel, dim := randRel(14, 3*BatchSize), randRel(15, 900)
	drain := func(op BatchOp) {
		t.Helper()
		if _, err := Drain(op, 2, "out"); err != nil {
			t.Fatal(err)
		}
	}
	scan := NewBatchScan(rel)
	f := NewBatchFilter(scan, []ColRange{{Col: 3, Lo: 0, HasLo: true, Hi: 40, HasHi: true}}, nil)
	p, err := NewBatchProject(f, rel.Schema, []ProjExpr{Pick(0), Pick(1), Pick(2), Pick(3)})
	if err != nil {
		t.Fatal(err)
	}
	lim := NewBatchLimit(p, 2*BatchSize)
	drain(lim)
	for name, op := range map[string]BatchOp{"scan": scan, "filter": f, "project": p, "limit": lim} {
		if st := op.Stats(); st.RowsOut == 0 || st.BuildNs != 0 {
			t.Errorf("%s: %d rows out, BuildNs %d; want rows and no build time", name, st.RowsOut, st.BuildNs)
		}
	}

	keys := []SortKey{{Col: 3, Desc: true}, {Col: 0}}
	sorted, _ := NewBatchSort(NewBatchScan(rel), keys, 2)
	topk, _ := NewBatchTopK(NewBatchScan(rel), keys, 50, 2)
	fallback, _ := NewBatchTopK(NewBatchScan(rel), keys, 50, 2)
	fallback.SetBudget(tinyBudget(64))
	agg, _ := NewBatchGroupAgg(NewBatchScan(rel), []int{1}, []AggSpec{{Fn: CountAgg, Name: "n"}}, 2)
	join, _ := NewBatchHashJoin(NewBatchScan(dim), NewBatchScan(rel), 0, 0, 2)
	grace, _ := NewBatchHashJoin(NewBatchScan(dim), NewBatchScan(rel), 0, 0, 2)
	grace.SetBudget(tinyBudget(64))
	for name, op := range map[string]BatchOp{"sort": sorted, "top-k": topk, "top-k fallback": fallback,
		"group-by": agg, "join": join, "grace join": grace} {
		drain(op)
		if st := op.Stats(); st.RowsOut == 0 || st.BuildNs <= 0 {
			t.Errorf("%s: %d rows out, BuildNs %d; want rows and build time", name, st.RowsOut, st.BuildNs)
		}
	}
	if grace.core.grace == nil || fallback.Stats().Spill == nil {
		t.Fatal("a 64-byte budget left the join out of grace mode or the top-k unspilled")
	}
}
