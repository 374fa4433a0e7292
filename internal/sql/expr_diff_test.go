package sql

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/relational"
)

// The two forms of a compiled expression — the row closure (the oracle)
// and the typed column program the batch engine runs — checked against
// each other, failure modes first: division and modulo by zero under
// every short circuit, the empty Int range, MinInt64/MaxInt64 bounds and
// empty input, then none/all/every-other/last-row survivors, NaN, ±Inf
// and ±0, coded and plain Strings, and every operator and type pair. Each
// case runs at Workers 1 and 2.

// exprTable is a one-batch table of edge values. Columns: id, i and j
// (Int; j holds zeros), f and g (Float: NaN, ±Inf, ±0), s (String,
// dictionary-coded) and p (String, plain), e (Int, 0 on even rows).
func exprTable(name string, n int) *relational.Relation {
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, 2015, 2016, 7, -7, 3, 4, 5, 100, -100, math.MinInt64 + 1, math.MaxInt64 - 1}
	divs := []int64{0, 1, -1, 2, 0, 3, 0, 5, 7, -2, 1, 0, 9, 4, -1, 1}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1.5, -2.5, 100, 0.1, 1e300, -1e-300, 2015, 3, math.NaN(), 7, 0.5}
	floats2 := []float64{1, 0, math.Copysign(0, -1), 2, math.NaN(), math.Inf(1), 1, 0.25, 3, -1e300, 1e-300, 2015, 0, 1.5, math.Inf(-1), 4}
	coded := []string{"EU", "NA", "EU", "APAC", "", "EU"}
	plain := []string{"EU", "eu", "", "NA", "Z", "APAC", "ä", "EU-EAST", "a", "b", "c", "d", "e", "f", "g", "h"}
	id, i, j, e := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	f, g := make([]float64, n), make([]float64, n)
	s, p := make([]string, n), make([]string, n)
	for r := range n {
		id[r], i[r], j[r], e[r] = int64(r), ints[r%len(ints)], divs[r%len(divs)], int64(r%2)
		f[r], g[r] = floats[r%len(floats)], floats2[r%len(floats2)]
		s[r], p[r] = coded[r%len(coded)], plain[r%len(plain)]+fmt.Sprint(r/len(plain))
	}
	return relational.NewColumnRelation(name, relational.Schema{
		{Name: "id", Type: relational.Int}, {Name: "i", Type: relational.Int}, {Name: "j", Type: relational.Int},
		{Name: "f", Type: relational.Float}, {Name: "g", Type: relational.Float},
		{Name: "s", Type: relational.String}, {Name: "p", Type: relational.String}, {Name: "e", Type: relational.Int},
	}, []relational.Vector{
		{T: relational.Int, Ints: id}, {T: relational.Int, Ints: i}, {T: relational.Int, Ints: j},
		{T: relational.Float, Floats: f}, {T: relational.Float, Floats: g},
		relational.StringVector(s), {T: relational.String, Strs: p}, {T: relational.Int, Ints: e},
	}, n)
}

// exprScope binds rel's columns unqualified.
func exprScope(rel *relational.Relation) *scope {
	sc := &scope{}
	sc.addTable("t", rel.Schema, 0)
	return sc
}

// parseExprText parses one SQL expression.
func parseExprText(text string) (Expr, error) {
	stmt, err := Parse("SELECT " + text + " FROM t")
	if err != nil {
		return nil, err
	}
	return stmt.Items[0].E, nil
}

// oracle evaluates c's row closure over rel in row order: each row's
// value, or the first row's error.
func oracle(c compiled, rel *relational.Relation) ([]relational.Value, error) {
	var out []relational.Value
	for _, row := range rel.RowView() {
		v, err := c.eval(row)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// checkExprForms compiles e over rel and checks the program against the
// row closure at the given worker count: as a projection for every type
// (values equal, Floats bit-equal), and as a filter for a boolean (the
// same rows pass); both forms fail with the same error, or neither does.
func checkExprForms(t testing.TB, rel *relational.Relation, e Expr, workers int) {
	t.Helper()
	c, err := exprScope(rel).compile(e)
	if err != nil {
		return // rejected at plan time by both forms alike
	}
	want, wantErr := oracle(c, rel)
	name := fmt.Sprintf("%s (workers %d)", e.Render(), workers)

	schema := relational.Schema{{Name: "v", Type: toRelType(c.typ)}}
	proj, err := relational.NewBatchProject(relational.NewBatchScan(rel), schema,
		[]relational.ProjExpr{{Col: -1, Fn: c.eval, Prog: c.prog()}})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, gotErr := relational.Drain(proj, workers, "v")
	if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: projection error %v, row closure %v", name, gotErr, wantErr)
	}
	if wantErr == nil {
		for r, row := range got.RowView() {
			if w, g := want[r], row[0]; !sameBits(w, g) {
				t.Fatalf("%s: row %d: program %v (%v), row closure %v (%v)", name, r, g, g.T, w, w.T)
			}
		}
	}
	if c.typ != tBool {
		return
	}
	f, err := compileFilter(exprScope(rel), e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	kept, gotErr := relational.Drain(relational.NewBatchFilter(relational.NewBatchScan(rel), nil, f.prog), workers, "kept")
	if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: filter error %v, row closure %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	var wantIDs []int64
	for r, v := range want {
		if v.I != 0 {
			wantIDs = append(wantIDs, int64(r))
		}
	}
	gotIDs := kept.Columnar()[0].Ints
	if fmt.Sprint(wantIDs) != fmt.Sprint(gotIDs) && (len(wantIDs) > 0 || len(gotIDs) > 0) {
		t.Fatalf("%s: filter kept %v, row closure %v", name, gotIDs, wantIDs)
	}
}

// sameBits reports equal cells, Floats compared by their bits.
func sameBits(a, b relational.Value) bool {
	if a.T != b.T {
		return false
	}
	if a.T == relational.Float {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a.I == b.I && a.S == b.S
}

func checkExprTexts(t *testing.T, rels []*relational.Relation, texts []string) {
	t.Helper()
	for _, text := range texts {
		e, err := parseExprText(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		for _, rel := range rels {
			for _, workers := range []int{1, 2} {
				checkExprForms(t, rel, e, workers)
			}
		}
	}
}

// TestExprFormsFailures: division and modulo by zero fail both forms
// with the same error, on the first failing row in row order and, in
// that row, the first operand the closure evaluates; a short circuit
// that skips the failing operand fails neither.
func TestExprFormsFailures(t *testing.T) {
	rel := exprTable("t", 16)
	for _, c := range []struct {
		text string
		want error
	}{
		{"i % j > 0", relational.ErrModuloByZero},
		{"i % j", relational.ErrModuloByZero},
		{"f / g > 0", relational.ErrDivisionByZero},
		{"f / g", relational.ErrDivisionByZero},
		{"i / j", relational.ErrDivisionByZero},
		{"1 / 0", relational.ErrDivisionByZero},
		{"i % 0", relational.ErrModuloByZero},
		{"0 % j", relational.ErrModuloByZero},
		{"f / -0.0 < 1", relational.ErrDivisionByZero},
		{"-(i % j) = 1", relational.ErrModuloByZero},
		{"NOT (i % j = 0)", relational.ErrModuloByZero},
		// Row 0 divides f by g = 1 and takes i % j with j = 0; row 1
		// divides by g = 0 first.
		{"f / g > 1 OR i % j = 0", relational.ErrModuloByZero},
		{"i % j = 0 AND f / g > 1", relational.ErrModuloByZero},
		{"id > 0 AND f / g > 1", relational.ErrDivisionByZero},
		{"id > 0 AND (i % j = 0 OR f / g > 1)", relational.ErrModuloByZero},
		{"id > 0 AND (f / g > 1 OR i % j = 0)", relational.ErrDivisionByZero},
		{"i < 9223372036854775807 % j", relational.ErrModuloByZero},
		// Row 0 fails both operands: the closure meets the left first.
		{"i % j > f / (g - g)", relational.ErrModuloByZero},
		{"f / (g - g) > i % j", relational.ErrDivisionByZero},
		{"j <> 0 AND i % j = 1", nil},
		{"j = 0 OR i % j = 1", nil},
		{"g <> 0 AND f / g > 1", nil},
		{"NOT (g = 0 OR f / g > 1)", nil},
		{"id > 100 AND i % 0 = 1", nil},
	} {
		e, err := parseExprText(c.text)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := exprScope(rel).compile(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := oracle(sc, rel); !errors.Is(err, c.want) || (err == nil) != (c.want == nil) {
			t.Fatalf("%s: row closure %v, want %v", c.text, err, c.want)
		}
		for _, workers := range []int{1, 2} {
			checkExprForms(t, rel, e, workers)
		}
	}
}

// checkProjectionForms projects every text of texts over rel at once
// and checks the batch projection against the row closures run row by
// row: the same error — the first failing row's, and in it the first
// failing column's — or, failing nowhere, the same cells. boxed[k] gives
// column k its row closure alone (relational.Expr).
func checkProjectionForms(t *testing.T, rel *relational.Relation, texts []string, boxed []bool, workers int) {
	t.Helper()
	name := fmt.Sprintf("%q boxed %v (workers %d)", texts, boxed, workers)
	cs := make([]compiled, len(texts))
	schema := make(relational.Schema, len(texts))
	pe := make([]relational.ProjExpr, len(texts))
	for k, text := range texts {
		e, err := parseExprText(text)
		if err != nil {
			t.Fatal(err)
		}
		if cs[k], err = exprScope(rel).compile(e); err != nil {
			t.Fatal(err)
		}
		schema[k] = relational.Column{Name: fmt.Sprint("v", k), Type: toRelType(cs[k].typ)}
		pe[k] = relational.ProjExpr{Col: -1, Fn: cs[k].eval, Prog: cs[k].prog()}
		if boxed[k] {
			pe[k] = relational.Expr(cs[k].eval)
		}
	}
	var want [][]relational.Value
	var wantErr error
rows:
	for _, row := range rel.RowView() {
		out := make([]relational.Value, len(cs))
		for k, c := range cs {
			if out[k], wantErr = c.eval(row); wantErr != nil {
				break rows
			}
		}
		want = append(want, out)
	}
	proj, err := relational.NewBatchProject(relational.NewBatchScan(rel), schema, pe)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, gotErr := relational.Drain(proj, workers, "v")
	if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: projection error %v, row closures %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	for r, row := range got.RowView() {
		for k := range cs {
			if w, g := want[r][k], row[k]; !sameBits(w, g) {
				t.Fatalf("%s: row %d column %d: program %v, row closure %v", name, r, k, g, w)
			}
		}
	}
}

// TestExprFormsColumnOrder: a projection of several fallible columns
// fails on the first failing row, and in that row on the first failing
// column, whichever column fails first in column order and whether each
// column runs a program or boxes rows for its closure. The same holds
// end to end for select items and for group keys beside aggregate
// arguments, against the row engine.
func TestExprFormsColumnOrder(t *testing.T) {
	rel := exprTable("t", 16)
	for _, c := range []struct {
		texts []string
		want  error
	}{
		// Row 0 takes i % j with j = 0; f / g first fails on row 1.
		{[]string{"f / g", "i % j"}, relational.ErrModuloByZero},
		{[]string{"i % j", "f / g"}, relational.ErrModuloByZero},
		// Row 0 fails both: the earlier column wins.
		{[]string{"i % j", "f / (g - g)"}, relational.ErrModuloByZero},
		{[]string{"f / (g - g)", "i % j"}, relational.ErrDivisionByZero},
		// f / g fails on row 1, i % (j + 1) first on row 2.
		{[]string{"i % (j + 1)", "f / g"}, relational.ErrDivisionByZero},
		{[]string{"id", "i % (j + 1)", "f / g", "i + j"}, relational.ErrDivisionByZero},
		{[]string{"i + j", "f * g", "s = 'EU'"}, nil},
	} {
		for mask := range 1 << len(c.texts) {
			boxed := make([]bool, len(c.texts))
			for k := range boxed {
				boxed[k] = mask>>k&1 == 1
			}
			for _, workers := range []int{1, 2} {
				checkProjectionForms(t, rel, c.texts, boxed, workers)
			}
		}
	}

	db := newTestDB()
	db.Register(rel)
	for _, c := range []struct {
		q    string
		want error
	}{
		{"SELECT f / g, i % j FROM t", relational.ErrModuloByZero},
		{"SELECT i % (j + 1), f / g FROM t", relational.ErrDivisionByZero},
		{"SELECT i % (j + 1) AS k, SUM(f / g) FROM t GROUP BY i % (j + 1)", relational.ErrDivisionByZero},
		{"SELECT f / g AS k, SUM(i % (j + 1)) FROM t GROUP BY f / g", relational.ErrDivisionByZero},
		{"SELECT i % (j + 1) AS k, SUM(f / (g + 1)) FROM t GROUP BY i % (j + 1)", relational.ErrModuloByZero},
	} {
		for _, eng := range []struct {
			parallel bool
			workers  int
		}{{false, 1}, {true, 1}, {true, 2}} {
			db.Opt.Parallel, db.Opt.Workers = eng.parallel, eng.workers
			if _, err := db.Query(c.q); !errors.Is(err, c.want) {
				t.Errorf("%s (parallel %v, workers %d): %v, want %v", c.q, eng.parallel, eng.workers, err, c.want)
			}
		}
	}
}

// TestExprFormsRanges: Int comparisons with literals at their extremes —
// < MinInt64 and > MaxInt64 select nothing, the bounds themselves — and
// an empty table; then the empty range Lo=1, Hi=0 as a hand-built
// ColRange.
func TestExprFormsRanges(t *testing.T) {
	rels := []*relational.Relation{exprTable("t", 16), exprTable("t", 0)}
	checkExprTexts(t, rels, []string{
		"i < -9223372036854775807 - 1",
		"i > 9223372036854775807",
		"i <= -9223372036854775807 - 1",
		"i >= 9223372036854775807",
		"i <= 9223372036854775807",
		"i >= -9223372036854775807 - 1",
		"i = -9223372036854775807 - 1",
		"i <> 9223372036854775807",
		"-9223372036854775807 - 1 < i",
		"9223372036854775807 > i AND i > -9223372036854775807 - 1",
		"i + 1 > 9223372036854775807",
		"i - 1 < -9223372036854775807 - 1",
		"i * 2 >= 0",
	})
	// The empty range as the benchmark hand-builds it.
	rel := exprTable("t", 16)
	for _, workers := range []int{1, 2} {
		out, err := relational.Drain(relational.NewBatchFilter(relational.NewBatchScan(rel),
			[]relational.ColRange{{Col: 1, Lo: 1, Hi: 0, HasLo: true, HasHi: true}}, nil), workers, "x")
		if err != nil || out.Len() != 0 {
			t.Fatalf("Lo=1, Hi=0 kept %v rows (%v)", out.Len(), err)
		}
	}
}

// TestExprFormsSurvivors: no row, every row, every other row and only
// the last row survive, across batch boundaries.
func TestExprFormsSurvivors(t *testing.T) {
	n := 3*relational.BatchSize + 5
	rels := []*relational.Relation{exprTable("t", 16), exprTable("t", n)}
	checkExprTexts(t, rels, []string{
		"id < 0", "id >= 0", "e = 0", "e <> 0", "NOT e = 0", "e = 0 OR e = 1",
		fmt.Sprintf("id = %d", n-1), "id = 15", fmt.Sprintf("id >= %d", n-1),
		"e = 0 AND id > 10", "e = 1 OR id = 0", "NOT (e = 1 OR id < 3)",
		"s = 'EU' OR e = 0", "f = f AND e = 1", "p >= 'a' OR e = 1",
	})
}

// TestExprFormsFloats: NaN ties with every value under Compare, so = and
// <= and >= hold against it and < and > do not; ±Inf and ±0 compare as
// IEEE values; arithmetic is bit-identical.
func TestExprFormsFloats(t *testing.T) {
	rels := []*relational.Relation{exprTable("t", 16), exprTable("t", 40)}
	checkExprTexts(t, rels, []string{
		"f = 0", "f = -0.0", "f <> 0", "f < 1", "f <= 1", "f > 1", "f >= 1",
		"f = f", "f <> f", "f < g", "f <= g", "f > g", "f >= g", "f = g", "f <> g",
		"f > 100000000000000000000.0", "f < -100000000000000000000.0", "2015.0 = f", "1.5 > f",
		"i = f", "i < 2015.5", "i > 100000000000000000000.0", "i < 9223372036854775807.0", "i >= f", "j <> g", "2015 = f",
		"f + g", "f - g", "f * g", "f * (1 - g)", "-(f * g)", "-f", "f + 1", "1 - f",
		"2.5 * f", "f / 4", "8 / f", "i + f", "i * 2.5", "i / 2", "f + i * j",
		"f * g + f", "(f - g) * (f + g)",
	})
}

// TestExprFormsStrings: coded and plain String columns against literals
// present and absent, each other, and ordering operators.
func TestExprFormsStrings(t *testing.T) {
	rel := exprTable("t", 16)
	if rel.Columnar()[5].Dict == nil || rel.Columnar()[6].Dict != nil {
		t.Fatal("column s must be coded and p plain")
	}
	checkExprTexts(t, []*relational.Relation{rel, exprTable("t", 3*relational.BatchSize)}, []string{
		"s = 'EU'", "s <> 'EU'", "s = 'nope'", "s <> 'nope'", "s = ''",
		"s < 'EU'", "s <= 'EU'", "s > 'EU'", "s >= 'NA'", "s > 'zzz'",
		"'EU' = s", "'EU' < s", "p = 'EU0'", "p <> 'EU0'", "p > 'M'", "p < ''",
		"s = p", "s < p", "p >= s", "s = s", "'a' < 'b'", "'b' = 'a'",
	})
}

// TestExprFormsOperators: every arithmetic operator over Int and mixed
// operands (Int wrapping at the extremes), boolean values read as
// columns, and AND/OR/NOT nesting.
func TestExprFormsOperators(t *testing.T) {
	rels := []*relational.Relation{exprTable("t", 16), exprTable("t", 2*relational.BatchSize+3)}
	checkExprTexts(t, rels, []string{
		"i + j", "i - j", "i * j", "-i", "i * j + i", "i - -j", "j % 3", "i % -1",
		"i + 1", "1 - i", "i * 0", "2 * (i + j) - 1", "-(-i)", "1 + 2", "7 % 3",
		"i > j", "i = j", "NOT i > j", "i > 0 AND j > 0", "i > 0 OR j > 0",
		"NOT i > 0", "NOT (i > 0 OR f < 1)", "(i > 0 OR j > 0) AND NOT s = 'EU'",
		"i + j = i * j", "i - j < j - i", "1 = 1", "1 = 2", "1 < 2 AND i > 0",
		"NOT (NOT (e = 0))", "(e = 0 OR i < 0) AND (e = 1 OR j > 0)",
	})
}

// exprGen builds an expression tree of a requested type from fuzz bytes:
// each byte picks a production, and an exhausted input ends every branch
// in a column.
type exprGen struct {
	data []byte
	pos  int
}

func (g *exprGen) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return int(g.data[g.pos-1])
}

var (
	genIntLits   = []string{"0", "1", "-1", "3", "2015", "9223372036854775807", "(-9223372036854775807 - 1)"}
	genFloatLits = []string{"0.0", "-0.0", "0.5", "-2.5", "100000000000000000000.0", "0.0000001", "2015.0"}
	genStrLits   = []string{"'EU'", "''", "'NA'", "'nope'", "'EU0'", "'M'"}
	genCmpOps    = []string{"=", "<>", "<", "<=", ">", ">="}
)

// gen returns an expression of type t (tInt, tFloat, tString or tBool)
// at most depth levels deep.
func (g *exprGen) gen(t valType, depth int) string {
	b := g.next()
	leaf := depth <= 0 || b%4 == 0
	switch t {
	case tInt:
		switch {
		case leaf && b%8 < 5:
			return []string{"id", "i", "j", "e"}[b/8%4]
		case leaf:
			return genIntLits[b/8%len(genIntLits)]
		case b%4 == 1:
			return "-(" + g.gen(tInt, depth-1) + ")"
		}
		return "(" + g.gen(tInt, depth-1) + " " + []string{"+", "-", "*", "%"}[b/4%4] + " " + g.gen(tInt, depth-1) + ")"
	case tFloat:
		switch {
		case leaf && b%8 < 5:
			return []string{"f", "g"}[b/8%2]
		case leaf:
			return genFloatLits[b/8%len(genFloatLits)]
		case b%4 == 1:
			return "-(" + g.gen(tFloat, depth-1) + ")"
		}
		l, r := tFloat, []valType{tInt, tFloat}[b/4%2]
		if b/8%2 == 1 {
			l, r = r, l
		}
		return "(" + g.gen(l, depth-1) + " " + []string{"+", "-", "*", "/"}[b/16%4] + " " + g.gen(r, depth-1) + ")"
	case tString:
		if b%8 < 5 {
			return []string{"s", "p"}[b/8%2]
		}
		return genStrLits[b/8%len(genStrLits)]
	}
	op := genCmpOps[b/4%len(genCmpOps)]
	switch {
	case leaf && b%8 < 5:
		return "(" + g.gen(tString, 0) + " " + op + " " + g.gen(tString, 0) + ")"
	case leaf:
		return "(" + g.gen(tInt, 1) + " " + op + " " + g.gen(tFloat, 1) + ")"
	case b%4 == 1:
		return "NOT " + g.gen(tBool, depth-1)
	case b%4 == 2:
		return "(" + g.gen(tBool, depth-1) + []string{" AND ", " OR "}[b/8%2] + g.gen(tBool, depth-1) + ")"
	}
	num := []valType{tInt, tFloat}
	return "(" + g.gen(num[b/8%2], depth-1) + " " + op + " " + g.gen(num[b/16%2], depth-1) + ")"
}

// FuzzExprForms: a random expression tree over Int, Float and String
// columns compiles to a program that agrees with its row closure — equal
// rows, bit-equal Floats, the same rows through a filter and the same
// error on division or modulo by zero — at Workers 1 and 2. A second
// tree projected beside it fails where the row closures, run row by row,
// first fail. The seeds are in testdata/fuzz/FuzzExprForms.
func FuzzExprForms(f *testing.F) {
	f.Add([]byte{3, 6, 9, 12, 40, 200, 17})
	rel := exprTable("t", 40)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &exprGen{data: data}
		text := g.gen([]valType{tInt, tFloat, tString, tBool}[g.next()%4], 4)
		e, err := parseExprText(text)
		if err != nil {
			t.Fatalf("generated %q does not parse: %v", text, err)
		}
		for _, workers := range []int{1, 2} {
			checkExprForms(t, rel, e, workers)
		}
		second := g.gen([]valType{tInt, tFloat}[g.next()%2], 3)
		for _, text := range []string{text, second} {
			if e, err := parseExprText(text); err != nil {
				t.Fatalf("generated %q does not parse: %v", text, err)
			} else if _, err := exprScope(rel).compile(e); err != nil {
				return // rejected at plan time by both forms alike
			}
		}
		for _, workers := range []int{1, 2} {
			checkProjectionForms(t, rel, []string{text, second}, []bool{false, false}, workers)
		}
	})
}
