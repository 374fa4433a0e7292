package relational

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/kernels"
)

// Selected batches: every selection-aware operator is run over a stream
// whose batches carry a selection and over the same stream gathered
// (Dense), and must answer alike — the same rows, Floats bit-equal, the
// same error, the same OpStats row count and the same spill report.
// Failure modes first: a division or modulo by zero on a rejected row
// must not fail, and one on a selected row must.

// selPatterns are the selections a selected source lays over each batch
// it replays.
var selPatterns = []struct {
	name string
	sel  func(n int) []int32
}{
	{"empty", func(int) []int32 { return []int32{} }},
	{"full", func(n int) []int32 { return kernels.AppendIota(nil, n) }},
	{"single", func(n int) []int32 { return []int32{int32(n / 2)} }},
	{"every-other", func(n int) []int32 {
		var s []int32
		for r := 0; r < n; r += 2 {
			s = append(s, int32(r))
		}
		return s
	}},
	{"last", func(n int) []int32 { return []int32{int32(n - 1)} }},
}

// selSchema: a row id, a join key, a divisor holding zeros, a Float
// (NaN, ±Inf, ±0), a coded and a plain String, and an Int payload.
var selSchema = Schema{
	{Name: "id", Type: Int}, {Name: "k", Type: Int}, {Name: "j", Type: Int}, {Name: "f", Type: Float},
	{Name: "s", Type: String}, {Name: "p", Type: String}, {Name: "v", Type: Int},
}

// selRel returns n rows of selSchema.
func selRel(n int) *Relation {
	floats := []float64{math.NaN(), 1.5, math.Inf(1), 0, math.Copysign(0, -1), -2.5, math.Inf(-1), 7, 0.25}
	strs := []string{"EU", "NA", "", "APAC", "EU", "ä"}
	id, k, j, v := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	f, s, p := make([]float64, n), make([]string, n), make([]string, n)
	for r := range n {
		id[r], k[r], j[r], v[r] = int64(r), int64(r*7%13), int64(r%5), int64(r*r%97-40)
		f[r], s[r], p[r] = floats[r%len(floats)], strs[r%len(strs)], fmt.Sprint(strs[r%len(strs)], r%11)
	}
	return NewColumnRelation("sel", selSchema, []Vector{
		{T: Int, Ints: id}, {T: Int, Ints: k}, {T: Int, Ints: j}, {T: Float, Floats: f},
		codedOf(s...), plainOf(p...), {T: Int, Ints: v},
	}, n)
}

// selectedSource cuts rel into batches of per rows and lays sel over
// each, dropping a batch it empties (a filter emits no empty batch); the
// dense twin replays the same batches gathered.
func selectedSource(rel *Relation, per int, sel func(int) []int32, dense bool) *batchSource {
	src := cutBatches(rel, per)
	var kept []*Batch
	for _, b := range src.batches {
		b = &Batch{Schema: b.Schema, Cols: b.Cols, Seq: b.Seq, Sel: sel(b.Len()), n: b.Len()}
		if b.Len() == 0 {
			continue
		}
		if dense {
			b = b.Dense()
		}
		kept = append(kept, b)
	}
	src.batches = kept
	return src
}

// outcome is what draining an operator tree produced.
type outcome struct {
	rows  []Row
	err   error
	stats OpStats
}

// drainOutcome drains op through Drain (the breaker that gathers a
// selected batch's rows) and boxes the result.
func drainOutcome(op BatchOp, workers int) outcome {
	rel, err := Drain(op, workers, "out")
	if err != nil {
		return outcome{err: err, stats: op.Stats()}
	}
	return outcome{rows: rel.RowView(), stats: op.Stats()}
}

// requireSameOutcome checks a selected run against its dense twin. The
// row count of a failed run and the spill report of a budgeted one at
// several workers depend on the schedule (siblings stop, and race for
// the budget), so those are compared on one worker only.
func requireSameOutcome(t *testing.T, want, got outcome, workers int) {
	t.Helper()
	if !errors.Is(got.err, want.err) || (got.err == nil) != (want.err == nil) {
		t.Fatalf("error %v, dense twin %v", got.err, want.err)
	}
	if want.err == nil {
		requireIdenticalRows(t, want.rows, got.rows)
	}
	if workers > 1 {
		return
	}
	if got.stats.RowsOut != want.stats.RowsOut {
		t.Fatalf("OpStats count %d rows, dense twin %d", got.stats.RowsOut, want.stats.RowsOut)
	}
	if !reflect.DeepEqual(got.stats.Spill, want.stats.Spill) {
		t.Fatalf("spill %+v, dense twin %+v", got.stats.Spill, want.stats.Spill)
	}
}

// forEachSelection runs check over every selection pattern × batch size
// × worker count × budget, with the tree build makes over a selected
// source and over its dense twin.
func forEachSelection(t *testing.T, rel *Relation, budgets []int64, build func(src BatchOp, workers int, budget *MemoryBudget) (BatchOp, error)) {
	for _, pat := range selPatterns {
		for _, per := range []int{7, BatchSize} {
			for _, workers := range []int{1, 2} {
				for _, limit := range budgets {
					t.Run(fmt.Sprintf("%s/per%d/w%d/budget%d", pat.name, per, workers, limit), func(t *testing.T) {
						var out [2]outcome
						for i, dense := range []bool{true, false} {
							op, err := build(selectedSource(rel, per, pat.sel, dense), workers, diffBudget(limit))
							if err != nil {
								t.Fatal(err)
							}
							out[i] = drainOutcome(op, workers)
						}
						requireSameOutcome(t, out[0], out[1], workers)
					})
				}
			}
		}
	}
}

// TestSelectedFilterNarrows: a filter over a selected batch keeps the
// rows both select, sharing the child's vectors — it never gathers.
func TestSelectedFilterNarrows(t *testing.T) {
	rel := selRel(100)
	preds := []VecPred{
		Cmp(OpGt, ColumnExpr(6, Int), Const(IntV(0))),
		Cmp(OpEq, ColumnExpr(4, String), Const(StringV("EU"))),
		Cmp(OpLt, ColumnExpr(5, String), Const(StringV("EU5"))),
		Or(Cmp(OpGe, ColumnExpr(3, Float), Const(FloatV(1))), Not(Cmp(OpEq, ColumnExpr(2, Int), Const(IntV(0))))),
		// Fails on a selected row with j = 0, and only there.
		Cmp(OpEq, Arith(kernels.Mod, ColumnExpr(6, Int), ColumnExpr(2, Int)), Const(IntV(0))),
	}
	for pi, pred := range preds {
		t.Run(fmt.Sprint(pi), func(t *testing.T) {
			forEachSelection(t, rel, []int64{0}, func(src BatchOp, _ int, _ *MemoryBudget) (BatchOp, error) {
				return NewBatchFilter(src, []ColRange{{Col: 0, Lo: 3, HasLo: true}}, pred), nil
			})
		})
	}

	src := selectedSource(rel, BatchSize, selPatterns[3].sel, false)
	in := src.batches[0]
	out, err := NewBatchFilter(src, nil, Cmp(OpGt, ColumnExpr(6, Int), Const(IntV(0)))).NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if out.Sel == nil || len(out.Sel) >= in.Len() || cap(out.Sel) != len(out.Sel) {
		t.Fatalf("filter output selects %d of %d rows (cap %d), want a narrower exact-size Sel", len(out.Sel), in.Len(), cap(out.Sel))
	}
	for c := range out.Cols {
		if !sameVector(&out.Cols[c], &in.Cols[c]) {
			t.Fatalf("column %d was copied, not shared", c)
		}
	}
}

// sameVector reports whether two vectors share their payload.
func sameVector(a, b *Vector) bool {
	switch {
	case a.T == Int:
		return &a.Ints[0] == &b.Ints[0]
	case a.T == Float:
		return &a.Floats[0] == &b.Floats[0]
	case a.Dict != nil:
		return &a.Codes[0] == &b.Codes[0]
	}
	return &a.Strs[0] == &b.Strs[0]
}

// TestSelectedProjectFailsOnlyOnSelectedRows: SELECT v / j, v % j FROM
// t WHERE j <> 0 divides by zero on rejected rows only, and succeeds;
// without the filter, a selected zero divisor fails as its twin fails.
func TestSelectedProjectFailsOnlyOnSelectedRows(t *testing.T) {
	rel := selRel(100)
	schema := Schema{{Name: "id", Type: Int}, {Name: "q", Type: Float}, {Name: "m", Type: Int}, {Name: "s", Type: String}, {Name: "b", Type: Int}}
	exprs := []ProjExpr{
		Pick(0),
		{Col: -1, Prog: Arith(kernels.Div, ColumnExpr(6, Int), ColumnExpr(2, Int))},
		{Col: -1, Prog: Arith(kernels.Mod, ColumnExpr(6, Int), ColumnExpr(2, Int))},
		Pick(4),
		{Col: -1, Fn: func(r Row) (Value, error) {
			if r[2].I == 0 {
				return Value{}, ErrModuloByZero
			}
			return IntV(r[6].I % r[2].I), nil
		}},
	}
	nonZero := Cmp(OpNe, ColumnExpr(2, Int), Const(IntV(0)))
	for _, filtered := range []bool{true, false} {
		t.Run(fmt.Sprint("filtered=", filtered), func(t *testing.T) {
			forEachSelection(t, rel, []int64{0}, func(src BatchOp, _ int, _ *MemoryBudget) (BatchOp, error) {
				if filtered {
					src = NewBatchFilter(src, nil, nonZero)
				}
				return NewBatchProject(src, schema, exprs)
			})
		})
	}
	// Selected, every row passes j <> 0 and no projection fails.
	op, _ := NewBatchProject(NewBatchFilter(NewBatchScan(rel), nil, nonZero), schema, exprs)
	if _, err := Drain(op, 2, "q"); err != nil {
		t.Fatalf("a division by zero on a rejected row failed the projection: %v", err)
	}
}

// TestSelectedHashJoin: a probe read through its selection, on a unique
// build key (probe columns shared, build columns scattered) and on a
// fanning-out one (gathered); a coded String key; and a budget small
// enough that the join goes grace and its probe gathers.
func TestSelectedHashJoin(t *testing.T) {
	rel := selRel(100)
	unique := NewColumnRelation("dim", Schema{{Name: "k", Type: Int}, {Name: "seg", Type: String}, {Name: "w", Type: Float}},
		[]Vector{{T: Int, Ints: []int64{0, 2, 3, 5, 8, 12}}, codedOf("a", "b", "a", "c", "b", "a"), {T: Float, Floats: []float64{0.5, math.NaN(), -0, 1, 2, 3}}}, 6)
	fanout := NewColumnRelation("fan", Schema{{Name: "k", Type: Int}, {Name: "seg", Type: String}},
		[]Vector{{T: Int, Ints: []int64{3, 5, 3, 9, 5, 3}}, plainOf("x", "y", "z", "w", "v", "u")}, 6)
	strDim := NewColumnRelation("sdim", Schema{{Name: "s", Type: String}, {Name: "n", Type: Int}},
		[]Vector{codedOf("EU", "APAC", ""), {T: Int, Ints: []int64{1, 2, 3}}}, 3)
	cases := []struct {
		name            string
		build           *Relation
		buildCol, probe int
	}{
		{"unique", unique, 0, 1}, {"fanout", fanout, 0, 1}, {"coded-key", strDim, 0, 4}, {"float-key", unique, 2, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			forEachSelection(t, rel, []int64{0, 48}, func(src BatchOp, workers int, budget *MemoryBudget) (BatchOp, error) {
				j, err := NewBatchHashJoin(NewBatchScan(c.build), NewBatchFilter(src, nil, Cmp(OpNe, ColumnExpr(6, Int), Const(IntV(-40)))), c.buildCol, c.probe, workers)
				if err != nil {
					return nil, err
				}
				j.SetBudget(budget)
				return j, nil
			})
		})
	}
}

// TestSelectedGroupAgg: the partial aggregates fold a selected batch in
// place — COUNT, SUM over Int and Float, AVG — or gather it first when a
// MIN or MAX is among them; a zero-column COUNT(*) too.
func TestSelectedGroupAgg(t *testing.T) {
	rel := selRel(100)
	sums := []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 6, Name: "sv"}, {Fn: SumAgg, Col: 3, Name: "sf"}, {Fn: AvgAgg, Col: 6, Name: "av"}}
	extremes := append(slices.Clone(sums), AggSpec{Fn: MinAgg, Col: 5, Name: "mp"}, AggSpec{Fn: MaxAgg, Col: 4, Name: "xs"}, AggSpec{Fn: MinAgg, Col: 3, Name: "mf"})
	for _, groupCols := range [][]int{{1}, {4}, {5}, {3}, {4, 1}, nil} {
		for _, aggs := range [][]AggSpec{sums, extremes, {{Fn: CountAgg, Col: -1, Name: "n"}}} {
			t.Run(fmt.Sprintf("%v/%d", groupCols, len(aggs)), func(t *testing.T) {
				forEachSelection(t, rel, []int64{0, 600}, func(src BatchOp, workers int, budget *MemoryBudget) (BatchOp, error) {
					g, err := NewBatchGroupAgg(src, groupCols, aggs, workers)
					if err != nil {
						return nil, err
					}
					g.SetBudget(budget)
					return g, nil
				})
			})
		}
	}
}

// TestSelectedPartialAggSeqTags: a partial fed selected batches with a
// seq column tags each group with the seq of its first selected row and
// counts only selected rows, as the gathered batch does.
func TestSelectedPartialAggSeqTags(t *testing.T) {
	rel := selRel(100)
	for _, pat := range selPatterns {
		for _, aggs := range [][]AggSpec{{{Fn: SumAgg, Col: 6, Name: "sv"}}, {{Fn: MaxAgg, Col: 4, Name: "xs"}}} {
			got, want := NewPartialAgg([]int{1}, aggs), NewPartialAgg([]int{1}, aggs)
			for _, b := range selectedSource(rel, 16, pat.sel, false).batches {
				if err := got.ObserveBatch(b, 0); err != nil {
					t.Fatal(err)
				}
				if err := want.ObserveBatch(b.Dense(), 0); err != nil {
					t.Fatal(err)
				}
			}
			if got.Rows() != want.Rows() || !reflect.DeepEqual(got.cols, want.cols) {
				t.Fatalf("%s: partial %v (%d rows), dense twin %v (%d rows)", pat.name, got.cols, got.Rows(), want.cols, want.Rows())
			}
		}
	}
}

// TestSelectedTopK: the heap reads a selected batch in place, ordinals
// count selected rows; under a budget the tail a heap cannot take is a
// window of the selection.
func TestSelectedTopK(t *testing.T) {
	rel := selRel(100)
	for _, keys := range [][]SortKey{{{Col: 3}, {Col: 0, Desc: true}}, {{Col: 4, Desc: true}}, {{Col: 5}}, {{Col: 1}}} {
		for _, k := range []int{1, 5, 60} {
			t.Run(fmt.Sprintf("%v/k%d", keys, k), func(t *testing.T) {
				forEachSelection(t, rel, []int64{0, 48, 600}, func(src BatchOp, workers int, budget *MemoryBudget) (BatchOp, error) {
					s, err := NewBatchTopK(src, keys, k, workers)
					if err != nil {
						return nil, err
					}
					s.SetBudget(budget)
					return s, nil
				})
			})
		}
	}
}

// TestSelectedLimitAndSort: LIMIT trims a selection; the full sort and
// Drain gather it once.
func TestSelectedLimitAndSort(t *testing.T) {
	rel := selRel(100)
	for _, n := range []int{0, 1, 9, 1000} {
		forEachSelection(t, rel, []int64{0}, func(src BatchOp, _ int, _ *MemoryBudget) (BatchOp, error) {
			return NewBatchLimit(src, n), nil
		})
	}
	forEachSelection(t, rel, []int64{0, 600}, func(src BatchOp, workers int, budget *MemoryBudget) (BatchOp, error) {
		s, err := NewBatchSort(src, []SortKey{{Col: 3, Desc: true}, {Col: 0}}, workers)
		if err != nil {
			return nil, err
		}
		s.SetBudget(budget)
		return s, nil
	})
	forEachSelection(t, rel, []int64{0}, func(src BatchOp, _ int, _ *MemoryBudget) (BatchOp, error) { return src, nil })
}

// TestSelectedBatchAccessors: Len, EncodedBytes and RowsOf read the
// selected rows; Dense of a dense batch is the batch itself.
func TestSelectedBatchAccessors(t *testing.T) {
	rel := selRel(30)
	for _, pat := range selPatterns {
		b := selectedSource(rel, BatchSize, pat.sel, false)
		if len(b.batches) == 0 {
			continue
		}
		sel, dense := b.batches[0], b.batches[0].Dense()
		if dense.Dense() != dense || sel.Len() != dense.Len() || sel.EncodedBytes() != dense.EncodedBytes() {
			t.Fatalf("%s: Len %d / %d, bytes %v / %v", pat.name, sel.Len(), dense.Len(), sel.EncodedBytes(), dense.EncodedBytes())
		}
		requireIdenticalRows(t, collectRows(t, RowsOf(&batchSource{schema: selSchema, batches: []*Batch{dense}})),
			collectRows(t, RowsOf(&batchSource{schema: selSchema, batches: []*Batch{sel}})))
	}
}

// FuzzSelection drives random per-batch selections through filter →
// join → aggregate and filter → join → top-k, against the same pipelines
// over the gathered batches. data[0] picks the batch size, data[1] the
// filter's bound, data[2] the top-k's k and data[3] the worker count and
// budget; each later byte selects rows of the next eight.
func FuzzSelection(f *testing.F) {
	f.Add([]byte{7, 30, 5, 0, 0xAA, 0x0F, 0xFF, 0x00, 0x81})
	f.Add([]byte{200, 0, 60, 3, 0x01})
	f.Add([]byte{1, 90, 1, 2, 0xFF, 0xFF, 0x10})
	rel := selRel(150)
	dim := NewColumnRelation("dim", Schema{{Name: "k", Type: Int}, {Name: "seg", Type: String}},
		[]Vector{{T: Int, Ints: []int64{0, 1, 2, 3, 5, 8, 11, 12}}, codedOf("a", "b", "a", "c", "b", "a", "d", "c")}, 8)
	fan := NewColumnRelation("fan", Schema{{Name: "k", Type: Int}, {Name: "seg", Type: String}},
		[]Vector{{T: Int, Ints: []int64{3, 5, 3, 9, 5, 3}}, plainOf("x", "y", "z", "w", "v", "u")}, 6)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		per, bound, k := 1+int(data[0]), int64(data[1])-128, 1+int(data[2])%80
		workers, budget := 1+int(data[3])%2, []int64{0, 48, 600}[int(data[3])/2%3]
		bits := data[4:]
		sel := func(base int) func(n int) []int32 {
			return func(n int) []int32 {
				s := []int32{}
				for r := range n {
					if i := (base + r) / 8; i < len(bits) && bits[i]>>((base+r)%8)&1 == 1 {
						s = append(s, int32(r))
					}
				}
				return s
			}
		}
		// Row r of the relation is selected by bit r of bits.
		source := func(dense bool) *batchSource {
			src := cutBatches(rel, per)
			var kept []*Batch
			for i, b := range src.batches {
				b = &Batch{Schema: b.Schema, Cols: b.Cols, Seq: b.Seq, Sel: sel(i * per)(b.Len()), n: b.Len()}
				if b.Len() == 0 {
					continue
				}
				if dense {
					b = b.Dense()
				}
				kept = append(kept, b)
			}
			src.batches = kept
			return src
		}
		for _, build := range []*Relation{dim, fan} {
			run := func(dense bool) [2]outcome {
				var out [2]outcome
				for i := range out {
					filt := NewBatchFilter(source(dense), nil, Cmp(OpGe, ColumnExpr(6, Int), Const(IntV(bound))))
					j, err := NewBatchHashJoin(NewBatchScan(build), filt, 0, 1, workers)
					if err != nil {
						t.Fatal(err)
					}
					j.SetBudget(diffBudget(budget))
					var op BatchOp
					if i == 0 {
						g, err := NewBatchGroupAgg(j, []int{1}, []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 8, Name: "sv"}, {Fn: SumAgg, Col: 5, Name: "sf"}}, workers)
						if err != nil {
							t.Fatal(err)
						}
						g.SetBudget(diffBudget(budget))
						op = g
					} else {
						s, err := NewBatchTopK(j, []SortKey{{Col: 5, Desc: true}, {Col: 2}}, k, workers)
						if err != nil {
							t.Fatal(err)
						}
						s.SetBudget(diffBudget(budget))
						op = s
					}
					out[i] = drainOutcome(op, workers)
				}
				return out
			}
			want, got := run(true), run(false)
			for i := range want {
				requireSameOutcome(t, want[i], got[i], workers)
			}
		}
	})
}
