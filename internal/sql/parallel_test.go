package sql

import (
	"math"
	"strings"
	"testing"

	"repro/internal/relational"
)

// parityQueries cover every construct both engines support: filters
// (range and generic), projections, joins (both build sides), grouped and
// global aggregates, HAVING, ORDER BY (radix and comparison paths) and
// LIMIT.
var parityQueries = []string{
	"SELECT * FROM sales",
	"SELECT order_id, price FROM sales WHERE year >= 2013 AND quantity > 2",
	"SELECT order_id FROM sales WHERE region = 'EU' ORDER BY order_id",
	"SELECT order_id, price * quantity AS value FROM sales WHERE year = 2014 ORDER BY value DESC, order_id LIMIT 10",
	"SELECT region, COUNT(*) AS n, SUM(price) AS total, AVG(discount) AS d FROM sales GROUP BY region ORDER BY total DESC",
	"SELECT COUNT(*), SUM(quantity), MIN(quantity), MAX(quantity) FROM sales",
	"SELECT COUNT(*) FROM sales", // bare star count: zero-width pre-projection
	"SELECT COUNT(*) AS n FROM sales s JOIN customers c ON s.customer_id = c.customer_id",
	"SELECT MIN(region), MAX(product) FROM sales",
	"SELECT year, MIN(price) AS lo, MAX(price) AS hi FROM sales GROUP BY year ORDER BY year",
	"SELECT c.segment, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY net DESC",
	"SELECT s.order_id, c.name FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2014 ORDER BY s.order_id LIMIT 25",
	"SELECT c.country, COUNT(*) AS n FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.country HAVING COUNT(*) >= 2 ORDER BY n DESC, 1",
	"SELECT product, SUM(quantity) AS units FROM sales WHERE year >= 2012 AND year <= 2015 GROUP BY product ORDER BY units DESC LIMIT 3",
	"SELECT order_id FROM sales ORDER BY quantity DESC, order_id LIMIT 7",
	"SELECT region, COUNT(*) FROM sales WHERE quantity > 100 GROUP BY region", // empty result
	// A generic (non-range) conjunct pushed below a build-swapped join.
	"SELECT c.segment, COUNT(*) AS n FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.price > 50 GROUP BY c.segment ORDER BY n DESC, 1",
}

// sameRelation compares results row-for-row. Int and String cells must be
// identical; Float cells (aggregate sums merge per-partition partials,
// which can differ from the serial left-fold in the last ulp) compare
// within 1e-9 relative tolerance.
func sameRelation(t *testing.T, q string, want, got *relational.Relation) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s\nrow counts differ: serial %d vs parallel %d", q, want.Len(), got.Len())
	}
	if len(want.Schema) != len(got.Schema) {
		t.Fatalf("%s\nschema widths differ: %d vs %d", q, len(want.Schema), len(got.Schema))
	}
	wantRows, gotRows := want.RowView(), got.RowView()
	for i := range wantRows {
		for j := range wantRows[i] {
			w, g := wantRows[i][j], gotRows[i][j]
			if w.T != g.T {
				t.Fatalf("%s\nrow %d col %d type differs: %v vs %v", q, i, j, w.T, g.T)
			}
			switch w.T {
			case relational.Float:
				if diff := math.Abs(w.F - g.F); diff > 1e-9*math.Max(1, math.Abs(w.F)) {
					t.Fatalf("%s\nrow %d col %d float differs: %v vs %v", q, i, j, w.F, g.F)
				}
			default:
				if w.I != g.I || w.S != g.S {
					t.Fatalf("%s\nrow %d col %d differs: %v vs %v", q, i, j, w, g)
				}
			}
		}
	}
}

func runBoth(t *testing.T, serialDB, parDB *testDB, q string) {
	t.Helper()
	serialDB.Opt.Parallel = false
	want, err := serialDB.Query(q)
	if err != nil {
		t.Fatalf("serial %q: %v", q, err)
	}
	got, err := parDB.Query(q)
	if err != nil {
		t.Fatalf("parallel %q: %v", q, err)
	}
	sameRelation(t, q, want, got)
}

// TestParallelMatchesSerial is the determinism proof for the morsel
// dispatcher: every query must produce row-for-row identical output on
// the batch engine (several worker counts) and the serial row engine,
// over a multi-morsel table.
func TestParallelMatchesSerial(t *testing.T) {
	serialDB := demoDB(7, 5000, 120)
	for _, workers := range []int{1, 2, 4, 7} {
		parDB := demoDB(7, 5000, 120)
		parDB.Opt.Parallel = true
		parDB.Opt.Workers = workers
		for _, q := range parityQueries {
			runBoth(t, serialDB, parDB, q)
		}
	}
}

// TestParallelMatchesSerialSingleMorsel pins the sub-batch edge case: the
// whole table fits one morsel.
func TestParallelMatchesSerialSingleMorsel(t *testing.T) {
	serialDB := demoDB(11, 37, 9)
	parDB := demoDB(11, 37, 9)
	parDB.Opt.Workers = 4
	for _, q := range parityQueries {
		runBoth(t, serialDB, parDB, q)
	}
}

// emptyDemoDB has the demo schemas with zero rows (the generator cannot
// produce empty tables).
func emptyDemoDB() *testDB {
	db := newTestDB()
	for _, rel := range demoDB(13, 1, 1).rels {
		db.Register(relational.NewRelation(rel.Name, rel.Schema))
	}
	return db
}

// TestParallelMatchesSerialEmptyTables pins the zero-row edge case.
func TestParallelMatchesSerialEmptyTables(t *testing.T) {
	serialDB := emptyDemoDB()
	parDB := emptyDemoDB()
	parDB.Opt.Workers = 4
	for _, q := range parityQueries {
		runBoth(t, serialDB, parDB, q)
	}
}

// TestParallelRepeatable: two parallel runs of the same query must agree
// exactly (bit-for-bit), regardless of dynamic morsel scheduling.
func TestParallelRepeatable(t *testing.T) {
	db := demoDB(17, 4000, 80)
	db.Opt.Workers = 4
	for _, q := range parityQueries {
		a, err := db.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		b, err := db.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if a.Len() != b.Len() {
			t.Fatalf("%q: run lengths differ: %d vs %d", q, a.Len(), b.Len())
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				x, y := a.Rows[i][j], b.Rows[i][j]
				if x.T != y.T || x.I != y.I || x.F != y.F || x.S != y.S {
					t.Fatalf("%q: run outputs differ at row %d col %d: %v vs %v", q, i, j, x, y)
				}
			}
		}
	}
}

// TestParallelRuntimeErrorsSurface: evaluation errors must propagate out
// of worker goroutines.
func TestParallelRuntimeErrorsSurface(t *testing.T) {
	db := demoDB(19, 3000, 50)
	db.Opt.Workers = 4
	if _, err := db.Query("SELECT price / (quantity - quantity) FROM sales"); err == nil ||
		!strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("expected division by zero from parallel engine, got %v", err)
	}
}

// TestExplainNamesEngine: plans advertise the batch engine when enabled.
func TestExplainNamesEngine(t *testing.T) {
	db := demoDB(23, 100, 10)
	plan, err := db.Plan("SELECT COUNT(*) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "morsel-parallel batch") {
		t.Fatalf("explain missing engine line:\n%s", plan.Explain())
	}
	db.Opt.Parallel = false
	plan, err = db.Plan("SELECT COUNT(*) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Explain(), "morsel-parallel batch") {
		t.Fatalf("serial explain must not claim the batch engine:\n%s", plan.Explain())
	}
}

// TestRangeExtraction covers the ColRange lowering of comparison shapes.
func TestRangeExtraction(t *testing.T) {
	db := demoDB(29, 3000, 60)
	serialDB := demoDB(29, 3000, 60)
	db.Opt.Workers = 3
	for _, q := range []string{
		"SELECT order_id FROM sales WHERE year = 2014",
		"SELECT order_id FROM sales WHERE year > 2013",
		"SELECT order_id FROM sales WHERE year < 2013",
		"SELECT order_id FROM sales WHERE 2013 <= year",
		"SELECT order_id FROM sales WHERE 2015 > year AND year >= 2011 AND quantity = 3",
		"SELECT order_id FROM sales WHERE year >= 2013 AND price > 50.0",
	} {
		runBoth(t, serialDB, db, q)
	}
}
