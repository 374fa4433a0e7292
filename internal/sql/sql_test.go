package sql

import (
	"strings"
	"testing"

	"repro/internal/relational"
)

func mustQuery(t *testing.T, db *testDB, q string) *relational.Relation {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

func tinyDB() *testDB {
	db := newTestDB()
	sales := relational.NewRelation("sales", relational.Schema{
		{Name: "id", Type: relational.Int},
		{Name: "region", Type: relational.String},
		{Name: "amount", Type: relational.Float},
		{Name: "qty", Type: relational.Int},
	})
	rows := []struct {
		id     int64
		region string
		amount float64
		qty    int64
	}{
		{1, "EU", 10, 2}, {2, "NA", 20, 1}, {3, "EU", 30, 5},
		{4, "APAC", 5, 1}, {5, "EU", 7.5, 3}, {6, "NA", 2.5, 2},
	}
	for _, r := range rows {
		sales.MustAppend(relational.Row{
			relational.IntV(r.id), relational.StringV(r.region),
			relational.FloatV(r.amount), relational.IntV(r.qty),
		})
	}
	regions := relational.NewRelation("regions", relational.Schema{
		{Name: "region", Type: relational.String},
		{Name: "continent", Type: relational.String},
	})
	regions.MustAppend(relational.Row{relational.StringV("EU"), relational.StringV("europe")})
	regions.MustAppend(relational.Row{relational.StringV("NA"), relational.StringV("america")})
	db.Register(sales)
	db.Register(regions)
	return db
}

// ---------- Lexer ----------

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a.b, 'it''s', 3.14, x<=5 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	if texts[0] != "select" || kinds[0] != TokKeyword {
		t.Fatalf("first token = %v %q", kinds[0], texts[0])
	}
	found := false
	for i, tx := range texts {
		if tx == "it's" && kinds[i] == TokString {
			found = true
		}
	}
	if !found {
		t.Fatal("escaped string not lexed")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("select 'unterminated"); err == nil {
		t.Fatal("expected unterminated string error")
	}
	if _, err := Lex("select #"); err == nil {
		t.Fatal("expected bad character error")
	}
}

// ---------- Parser ----------

func TestParseFullQuery(t *testing.T) {
	stmt, err := Parse(`SELECT region, SUM(amount) AS total
	                    FROM sales s JOIN regions r ON s.region = r.region
	                    WHERE amount > 3 AND qty < 10
	                    GROUP BY region ORDER BY total DESC LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 2 || stmt.Items[1].Alias != "total" {
		t.Fatalf("items = %+v", stmt.Items)
	}
	if len(stmt.Joins) != 1 || stmt.Joins[0].Table.Name != "regions" {
		t.Fatalf("joins = %+v", stmt.Joins)
	}
	if len(stmt.GroupBy) != 1 || stmt.Limit != 2 || len(stmt.OrderBy) != 1 || !stmt.OrderBy[0].Desc {
		t.Fatalf("clauses wrong: %+v", stmt)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse("SELECT a + b * 2 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.Items[0].E.Render(); got != "(a + (b * 2))" {
		t.Fatalf("precedence render = %q", got)
	}
	stmt, err = Parse("SELECT (a + b) * 2 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.Items[0].E.Render(); got != "((a + b) * 2)" {
		t.Fatalf("paren render = %q", got)
	}
}

func TestParseBooleanPrecedence(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
	if err != nil {
		t.Fatal(err)
	}
	// AND binds tighter than OR.
	if got := stmt.Where.Render(); got != "((x = 1) or ((y = 2) and (z = 3)))" {
		t.Fatalf("where render = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT x",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t extra garbage (",
		"SELECT a b c FROM t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("expected parse error for %q", q)
		}
	}
}

func TestParseNegativeLiteralFolds(t *testing.T) {
	stmt, err := Parse("SELECT -5, -2.5 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if l, ok := stmt.Items[0].E.(*IntLit); !ok || l.V != -5 {
		t.Fatalf("item 0 = %#v", stmt.Items[0].E)
	}
	if l, ok := stmt.Items[1].E.(*FloatLit); !ok || l.V != -2.5 {
		t.Fatalf("item 1 = %#v", stmt.Items[1].E)
	}
}

// ---------- Execution ----------

func TestSelectStar(t *testing.T) {
	res := mustQuery(t, tinyDB(), "SELECT * FROM sales")
	if res.Len() != 6 || len(res.Schema) != 4 {
		t.Fatalf("star: %d rows × %d cols", res.Len(), len(res.Schema))
	}
}

func TestWhereFilter(t *testing.T) {
	res := mustQuery(t, tinyDB(), "SELECT id FROM sales WHERE region = 'EU' AND amount >= 7.5")
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Len())
	}
}

func TestArithmeticAndAlias(t *testing.T) {
	res := mustQuery(t, tinyDB(), "SELECT id, amount * qty AS value FROM sales WHERE id = 3")
	if res.Len() != 1 {
		t.Fatal("want one row")
	}
	if res.Schema[1].Name != "value" {
		t.Fatalf("alias = %q", res.Schema[1].Name)
	}
	if res.Rows[0][1].F != 150 {
		t.Fatalf("value = %v", res.Rows[0][1])
	}
}

func TestIntegerArithmeticStaysInt(t *testing.T) {
	res := mustQuery(t, tinyDB(), "SELECT qty + 1 FROM sales WHERE id = 1")
	if res.Rows[0][0].T != relational.Int || res.Rows[0][0].I != 3 {
		t.Fatalf("qty+1 = %v (type %v)", res.Rows[0][0], res.Rows[0][0].T)
	}
	res = mustQuery(t, tinyDB(), "SELECT qty / 2 FROM sales WHERE id = 1")
	if res.Rows[0][0].T != relational.Float || res.Rows[0][0].F != 1 {
		t.Fatalf("qty/2 = %v (division is float)", res.Rows[0][0])
	}
}

func TestGroupByAggregates(t *testing.T) {
	res := mustQuery(t, tinyDB(),
		"SELECT region, COUNT(*) AS n, SUM(amount) AS total, AVG(amount) AS mean FROM sales GROUP BY region ORDER BY total DESC")
	if res.Len() != 3 {
		t.Fatalf("groups = %d", res.Len())
	}
	top := res.Rows[0]
	if top[0].S != "EU" || top[1].I != 3 || top[2].F != 47.5 {
		t.Fatalf("top group = %v", top)
	}
	if top[3].F != 47.5/3 {
		t.Fatalf("avg = %v", top[3])
	}
}

func TestGlobalAggregateNoGroupBy(t *testing.T) {
	res := mustQuery(t, tinyDB(), "SELECT COUNT(*), SUM(qty), MIN(amount), MAX(amount) FROM sales")
	if res.Len() != 1 {
		t.Fatal("global aggregate must yield one row")
	}
	r := res.Rows[0]
	if r[0].I != 6 || r[1].I != 14 || r[2].F != 2.5 || r[3].F != 30 {
		t.Fatalf("aggregates = %v", r)
	}
}

func TestOrderByPositionAndAlias(t *testing.T) {
	byPos := mustQuery(t, tinyDB(), "SELECT id, amount FROM sales ORDER BY 2 DESC LIMIT 1")
	if byPos.Rows[0][0].I != 3 {
		t.Fatalf("ORDER BY 2: top id = %v", byPos.Rows[0][0])
	}
	byAlias := mustQuery(t, tinyDB(), "SELECT id, amount AS a FROM sales ORDER BY a LIMIT 1")
	if byAlias.Rows[0][0].I != 6 {
		t.Fatalf("ORDER BY alias: top id = %v", byAlias.Rows[0][0])
	}
}

func TestOrderByUnselectedColumn(t *testing.T) {
	res := mustQuery(t, tinyDB(), "SELECT id FROM sales ORDER BY amount DESC LIMIT 2")
	if res.Rows[0][0].I != 3 || res.Rows[1][0].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoinWithQualifiedColumns(t *testing.T) {
	res := mustQuery(t, tinyDB(),
		"SELECT s.id, r.continent FROM sales s JOIN regions r ON s.region = r.region ORDER BY s.id")
	if res.Len() != 5 {
		t.Fatalf("join rows = %d, want 5 (APAC drops)", res.Len())
	}
	if res.Rows[0][1].S != "europe" {
		t.Fatalf("row 0 = %v", res.Rows[0])
	}
}

func TestJoinThenGroup(t *testing.T) {
	res := mustQuery(t, tinyDB(),
		"SELECT r.continent, SUM(s.amount) AS total FROM sales s JOIN regions r ON s.region = r.region GROUP BY r.continent ORDER BY total DESC")
	if res.Len() != 2 {
		t.Fatalf("groups = %d", res.Len())
	}
	if res.Rows[0][0].S != "europe" || res.Rows[0][1].F != 47.5 {
		t.Fatalf("top = %v", res.Rows[0])
	}
}

func TestOrderByAggregateNotSelected(t *testing.T) {
	res := mustQuery(t, tinyDB(),
		"SELECT region FROM sales GROUP BY region ORDER BY SUM(amount) DESC LIMIT 1")
	if res.Rows[0][0].S != "EU" {
		t.Fatalf("top region = %v", res.Rows[0][0])
	}
}

func TestHavingLikeViaAggregateOrdering(t *testing.T) {
	// The subset has no HAVING; make sure aggregate exprs compose in
	// select items (sum(amount)/count(*)).
	res := mustQuery(t, tinyDB(),
		"SELECT region, SUM(amount) / COUNT(*) AS mean FROM sales GROUP BY region ORDER BY mean DESC LIMIT 1")
	if res.Rows[0][0].S != "EU" {
		t.Fatalf("top = %v", res.Rows[0])
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	res := mustQuery(t, tinyDB(),
		"SELECT region, SUM(amount) AS total FROM sales GROUP BY region HAVING SUM(amount) > 20 ORDER BY total DESC")
	// EU (47.5) and NA (22.5) pass; APAC (5) is filtered out.
	if res.Len() != 2 {
		t.Fatalf("groups after HAVING = %d, want 2", res.Len())
	}
	if res.Rows[0][0].S != "EU" || res.Rows[1][0].S != "NA" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestHavingOnCountWithoutSelectingIt(t *testing.T) {
	res := mustQuery(t, tinyDB(),
		"SELECT region FROM sales GROUP BY region HAVING COUNT(*) >= 2 ORDER BY region")
	if res.Len() != 2 {
		t.Fatalf("groups = %d, want 2 (EU, NA)", res.Len())
	}
}

func TestHavingOnGroupColumn(t *testing.T) {
	res := mustQuery(t, tinyDB(),
		"SELECT region, COUNT(*) FROM sales GROUP BY region HAVING region != 'EU' ORDER BY region")
	if res.Len() != 2 {
		t.Fatalf("groups = %d, want 2", res.Len())
	}
	for _, row := range res.Rows {
		if row[0].S == "EU" {
			t.Fatal("EU not filtered by HAVING")
		}
	}
}

func TestHavingWithoutAggregationIsError(t *testing.T) {
	if _, err := tinyDB().Query("SELECT id FROM sales HAVING id > 2"); err == nil {
		t.Fatal("HAVING without aggregation must error")
	}
}

func TestHavingNonBooleanIsError(t *testing.T) {
	if _, err := tinyDB().Query("SELECT region, COUNT(*) FROM sales GROUP BY region HAVING SUM(amount)"); err == nil {
		t.Fatal("non-boolean HAVING must error")
	}
}

func TestSemanticErrors(t *testing.T) {
	db := tinyDB()
	bad := []string{
		"SELECT nosuch FROM sales",
		"SELECT id FROM nosuch",
		"SELECT region FROM sales GROUP BY qty",                // region not grouped
		"SELECT * FROM sales GROUP BY region",                  // star with grouping
		"SELECT id FROM sales WHERE region",                    // non-boolean where
		"SELECT id FROM sales WHERE amount = 'x'",              // type mismatch
		"SELECT SUM(region) FROM sales",                        // sum over string
		"SELECT id FROM sales s JOIN regions r ON s.id > 1",    // no equality
		"SELECT id FROM sales ORDER BY 9",                      // position out of range
		"SELECT s.id FROM sales s JOIN sales s ON s.id = s.id", // dup alias
		"SELECT id + region FROM sales",                        // arithmetic on string
		"SELECT NOT id FROM sales",                             // NOT on non-boolean
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Fatalf("expected error for %q", q)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	db := tinyDB()
	if _, err := db.Query("SELECT amount / (qty - qty) FROM sales"); err == nil ||
		!strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("expected division by zero, got %v", err)
	}
	if _, err := db.Query("SELECT qty % (qty - qty) FROM sales"); err == nil ||
		!strings.Contains(err.Error(), "modulo by zero") {
		t.Fatalf("expected modulo by zero, got %v", err)
	}
}

func TestAmbiguousColumnDetected(t *testing.T) {
	db := tinyDB()
	// region exists in both tables.
	if _, err := db.Query("SELECT region FROM sales s JOIN regions r ON s.region = r.region"); err == nil {
		t.Fatal("expected ambiguity error")
	}
}

// ---------- Optimizer ----------

// TestPushdownReducesJoinInput: the single-table conjunct runs below the
// join, so fewer fact rows reach it than the scan produced. (Row parity of
// pushed-down and build-swapped plans with the oracle is parityQueries'
// job; their plan text is pinned by TestExplainGolden.)
func TestPushdownReducesJoinInput(t *testing.T) {
	db := demoDB(42, 5000, 200)
	plan, err := db.Plan(
		"SELECT c.segment, SUM(s.price) AS total FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year = 2015 GROUP BY c.segment")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(); err != nil {
		t.Fatal(err)
	}
	scan, pushed := plan.TaggedOps["scan:s"], plan.TaggedOps["pushdown:s"]
	if scan == nil || pushed == nil {
		t.Fatalf("scan/pushdown ops not tagged: %v", plan.TaggedOps)
	}
	if with, without := pushed.Stats().RowsOut, scan.Stats().RowsOut; with >= without {
		t.Fatalf("pushdown should cut join input: %d vs %d", with, without)
	}
}

func TestConstantFolding(t *testing.T) {
	folded := foldConstants(&BinExpr{Op: "+", L: &IntLit{V: 2}, R: &BinExpr{Op: "*", L: &IntLit{V: 3}, R: &IntLit{V: 4}}})
	if l, ok := folded.(*IntLit); !ok || l.V != 14 {
		t.Fatalf("folded = %#v", folded)
	}
	// Division by zero must NOT fold (runtime error preserved).
	kept := foldConstants(&BinExpr{Op: "/", L: &IntLit{V: 1}, R: &IntLit{V: 0}})
	if _, ok := kept.(*BinExpr); !ok {
		t.Fatalf("1/0 must not fold, got %#v", kept)
	}
}

func TestExplainListsSteps(t *testing.T) {
	db := tinyDB()
	plan, err := db.Plan("SELECT region, COUNT(*) FROM sales WHERE amount > 1 GROUP BY region ORDER BY 2 DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	ex := plan.Explain()
	for _, want := range []string{"scan", "aggregate", "top-k 1", "project"} {
		if !strings.Contains(ex, want) {
			t.Fatalf("explain missing %q:\n%s", want, ex)
		}
	}
}

func TestDemoDBEndToEnd(t *testing.T) {
	db := demoDB(99, 2000, 150)
	res := mustQuery(t, db, `
		SELECT c.country, COUNT(*) AS orders, SUM(s.price * (1 - s.discount)) AS revenue
		FROM sales s JOIN customers c ON s.customer_id = c.customer_id
		WHERE s.year >= 2012 AND s.quantity > 2
		GROUP BY c.country ORDER BY revenue DESC LIMIT 5`)
	if res.Len() == 0 || res.Len() > 5 {
		t.Fatalf("rows = %d", res.Len())
	}
	// Revenue column descending.
	for i := 1; i < res.Len(); i++ {
		if res.Rows[i][2].F > res.Rows[i-1][2].F {
			t.Fatal("revenue not descending")
		}
	}
}
