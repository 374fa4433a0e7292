package wire

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/relational"
	"repro/internal/sql"
)

// TestCellTypes: each relational type maps to its JSON scalar.
func TestCellTypes(t *testing.T) {
	if v := Cell(relational.IntV(42)); v != int64(42) {
		t.Fatalf("int cell = %v (%T)", v, v)
	}
	if v := Cell(relational.FloatV(2.5)); v != 2.5 {
		t.Fatalf("float cell = %v (%T)", v, v)
	}
	if v := Cell(relational.StringV("x")); v != "x" {
		t.Fatalf("string cell = %v (%T)", v, v)
	}
}

// TestFromResultRoundTrip: a distributed query's full report survives a
// JSON round trip — rows stay row-for-row identical (same fingerprint)
// and the stats envelope keeps its numbers.
func TestFromResultRoundTrip(t *testing.T) {
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 2
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sql.RegisterDemo(eng, 42, 2000, 50)
	res, err := eng.Session().Query(context.Background(),
		"SELECT c.segment, SUM(s.price) AS revenue FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY revenue DESC")
	if err != nil {
		t.Fatal(err)
	}
	w := FromResult(res)
	if w.RowCount != res.Rows.Len() || len(w.Rows) != w.RowCount {
		t.Fatalf("row counts: wire %d/%d, library %d", w.RowCount, len(w.Rows), res.Rows.Len())
	}
	if len(w.Columns) != 2 || w.Columns[0].Type != "string" || w.Columns[1].Type != "float" {
		t.Fatalf("columns = %+v", w.Columns)
	}
	if w.Net == nil || w.Net.Shards != 2 || w.Net.BytesShuffled <= 0 || w.Net.WallSeconds() <= 0 {
		t.Fatalf("net stats = %+v", w.Net)
	}
	if w.Admission == nil || w.Admission.RoundsJoined == 0 {
		t.Fatalf("admission stats = %+v", w.Admission)
	}
	if w.ModelSeconds() != w.Net.WallSeconds()+w.Net.SpillSeconds {
		t.Fatal("ModelSeconds != wall + spill")
	}

	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if Fingerprint(&back) != Fingerprint(w) {
		t.Fatal("fingerprint changed across the JSON round trip")
	}
	if back.Net.BytesShuffled != w.Net.BytesShuffled || back.Net.WallSeconds() != w.Net.WallSeconds() {
		t.Fatal("net stats changed across the JSON round trip")
	}
	var doc struct {
		Net struct {
			WallSeconds float64 `json:"wall_seconds"`
		} `json:"net"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || doc.Net.WallSeconds != w.Net.WallSeconds() {
		t.Fatalf("wall_seconds on the wire = %v, want %v", doc.Net.WallSeconds, w.Net.WallSeconds())
	}
	if back.Admission == nil || *back.Admission != res.Net.Adm {
		t.Fatalf("admission after the round trip = %+v, want %+v", back.Admission, res.Net.Adm)
	}
}

// TestFingerprintSensitivity: the fingerprint must distinguish row
// order, cell values, and schema.
func TestFingerprintSensitivity(t *testing.T) {
	base := &Result{
		Columns: []Column{{Name: "a", Type: "int"}},
		Rows:    [][]any{{int64(1)}, {int64(2)}},
	}
	same := &Result{
		Columns: []Column{{Name: "a", Type: "int"}},
		Rows:    [][]any{{int64(1)}, {int64(2)}},
	}
	if Fingerprint(base) != Fingerprint(same) {
		t.Fatal("identical results, different fingerprints")
	}
	swapped := &Result{Columns: base.Columns, Rows: [][]any{{int64(2)}, {int64(1)}}}
	if Fingerprint(base) == Fingerprint(swapped) {
		t.Fatal("row order not fingerprinted")
	}
	renamed := &Result{Columns: []Column{{Name: "b", Type: "int"}}, Rows: base.Rows}
	if Fingerprint(base) == Fingerprint(renamed) {
		t.Fatal("schema not fingerprinted")
	}
}

// TestIntCellsStayExact: Int cells marshal as JSON integers, not
// floats, so int64 values round-trip exactly in the canonical encoding.
func TestIntCellsStayExact(t *testing.T) {
	rel := relational.NewRelation("t", relational.Schema{{Name: "n", Type: relational.Int}})
	_ = rel.Append(relational.Row{relational.IntV(1 << 40)})
	w := &Result{Columns: []Column{{Name: "n", Type: "int"}}, Rows: Rows(rel), RowCount: 1}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "1099511627776") {
		t.Fatalf("int cell lost exactness: %s", data)
	}
}

// TestRowsColumnarMatchesRowBuilt: Rows encodes from the column vectors,
// so a relation built from columns — whose row view nobody took — must
// fingerprint exactly like the same cells built as rows, on every cell
// the float and string encodings could disagree on. The query cases go
// through FromResult: the oracle returns row-built results, the batch and
// distributed engines column-built ones.
func TestRowsColumnarMatchesRowBuilt(t *testing.T) {
	schema := relational.Schema{
		{Name: "n", Type: relational.Int},
		{Name: "f", Type: relational.Float},
		{Name: "s", Type: relational.String},
	}
	negZero := math.Copysign(0, -1)
	cases := map[string][]relational.Row{
		"zero rows": nil,
		"floats": {
			{relational.IntV(math.MinInt64), relational.FloatV(math.NaN()), relational.StringV("nan")},
			{relational.IntV(math.MaxInt64), relational.FloatV(negZero), relational.StringV("-0")},
			{relational.IntV(0), relational.FloatV(0), relational.StringV("+0")},
			{relational.IntV(-1), relational.FloatV(math.Inf(1)), relational.StringV("+inf")},
			{relational.IntV(1), relational.FloatV(math.Inf(-1)), relational.StringV("-inf")},
		},
		"strings": {
			{relational.IntV(1), relational.FloatV(1.5), relational.StringV("")},
			{relational.IntV(2), relational.FloatV(2.5), relational.StringV("a\x00b")},
			{relational.IntV(3), relational.FloatV(3.5), relational.StringV("\x00")},
		},
	}
	for name, rows := range cases {
		rowBuilt := relational.NewRelation("t", schema)
		cols := relational.NewBatch(schema, len(rows)).Cols
		for _, row := range rows {
			rowBuilt.MustAppend(row)
			for c, v := range row {
				cols[c].Append(v)
			}
		}
		colBuilt := relational.NewColumnRelation("t", schema, cols, len(rows))
		want := &Result{Columns: Columns(schema), Rows: Rows(rowBuilt)}
		got := &Result{Columns: Columns(schema), Rows: Rows(colBuilt)}
		if colBuilt.Rows != nil {
			t.Fatalf("%s: encoding took the relation's row view", name)
		}
		if len(got.Rows) != len(rows) || Fingerprint(got) != Fingerprint(want) {
			t.Fatalf("%s: column-built encodes as\n%s\nrow-built as\n%s", name, Fingerprint(got), Fingerprint(want))
		}
		for i, row := range rows {
			for j, v := range row {
				// NaN != NaN; the fingerprint above covers it.
				if w := Cell(v); got.Rows[i][j] != w && !(v.T == relational.Float && math.IsNaN(v.F)) {
					t.Fatalf("%s: cell [%d][%d] = %#v, want %#v", name, i, j, got.Rows[i][j], w)
				}
			}
		}
	}

	// A bare COUNT(*) aggregates a zero-column pre-projection; the empty
	// group-by returns zero rows.
	for _, q := range []string{
		"SELECT COUNT(*) FROM sales",
		"SELECT region, COUNT(*) AS n FROM sales WHERE quantity > 100 GROUP BY region",
	} {
		var want string
		for _, engine := range []string{"oracle", "batch", "distributed"} {
			cfg := sql.DefaultConfig()
			cfg.Parallel = engine != "oracle"
			cfg.Distributed = engine == "distributed"
			eng, err := sql.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sql.RegisterDemo(eng, 42, 2000, 50)
			res, err := eng.Session().Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %s: %v", engine, q, err)
			}
			w := FromResult(res)
			if engine != "oracle" && res.Rows.Rows != nil {
				t.Fatalf("%s: %s: FromResult took the result's row view", engine, q)
			}
			if len(w.Rows) != w.RowCount {
				t.Fatalf("%s: %s: %d rows on the wire, row_count %d", engine, q, len(w.Rows), w.RowCount)
			}
			if fp := Fingerprint(w); engine == "oracle" {
				want = fp
			} else if fp != want {
				t.Fatalf("%s: %s encodes as\n%s\noracle as\n%s", engine, q, fp, want)
			}
		}
	}
}

// BenchmarkWireFromResult is the attribution rung under the benchmark's
// serve.wire_from_result_ms: the scan class's result (the widest the
// benchmark serves) through FromResult, from a column-built relation as
// the batch engine hands it over.
func BenchmarkWireFromResult(b *testing.B) {
	eng, err := sql.NewEngine(sql.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sql.RegisterDemo(eng, 7, 1<<18, 2000)
	res, err := eng.Session().Query(context.Background(), classStatements[0].sql)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if w := FromResult(res); w.RowCount != res.Rows.Len() {
			b.Fatalf("%d rows on the wire, %d in the result", w.RowCount, res.Rows.Len())
		}
	}
}
