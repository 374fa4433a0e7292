package sql

import (
	"context"
	"testing"

	"repro/internal/relational"
	"repro/internal/workload"
)

// benchmarkClasses are the repository benchmark's four statement classes.
var benchmarkClasses = []string{
	"SELECT order_id, price FROM sales WHERE year >= 2015 AND quantity <= 4",
	"SELECT c.segment, COUNT(*) AS n, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2012 GROUP BY c.segment ORDER BY net DESC",
	"SELECT customer_id, COUNT(*) AS n, SUM(price) AS revenue FROM sales GROUP BY customer_id ORDER BY revenue DESC, customer_id LIMIT 10",
	"SELECT order_id, price, quantity FROM sales WHERE year >= 2016 ORDER BY price DESC, order_id LIMIT 100",
}

// requireColumnBuilt fails unless rel is column-built: no row store before
// anyone asks RowView, and Append refused (a row-built relation not yet
// read as columns accepts it).
func requireColumnBuilt(t *testing.T, rel *relational.Relation) {
	t.Helper()
	if rel.Rows != nil {
		t.Fatalf("%s: %d rows boxed at construction", rel.Name, len(rel.Rows))
	}
	zero := make(relational.Row, len(rel.Schema))
	for c, col := range rel.Schema {
		zero[c].T = col.Type
	}
	if err := rel.Append(zero); err == nil {
		t.Fatalf("%s: Append succeeded: the relation is row-built", rel.Name)
	}
}

// requireRows fails unless got equals want cell for cell, in order.
func requireRows(t *testing.T, name string, want, got []relational.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, generator %d", name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: width %d, generator %d", name, i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("%s row %d col %d: %v, generator %v", name, i, c, got[i][c], want[i][c])
			}
		}
	}
}

// TestDemoTablesColumnBuilt: the demo constructors return column-built
// relations whose rows are exactly the generator's, boxed in field order —
// for two seeds and for empty tables.
func TestDemoTablesColumnBuilt(t *testing.T) {
	for _, c := range []struct {
		seed         uint64
		n, customers int
	}{{7, 3000, 80}, {1234, 500, 40}, {7, 0, 0}} {
		sales := SalesRelation(c.seed, c.n, max(c.customers, 1))
		customers := CustomersRelation(c.seed+1, c.customers)
		var wantSales, wantCustomers []relational.Row
		for _, r := range workload.Sales(c.seed, c.n, max(c.customers, 1)) {
			wantSales = append(wantSales, relational.Row{
				relational.IntV(r.OrderID), relational.IntV(r.CustomerID),
				relational.StringV(r.Region), relational.StringV(r.Product),
				relational.IntV(r.Quantity), relational.FloatV(r.Price),
				relational.FloatV(r.Discount), relational.IntV(r.Year),
			})
		}
		for _, r := range workload.Customers(c.seed+1, c.customers) {
			wantCustomers = append(wantCustomers, relational.Row{
				relational.IntV(r.CustomerID), relational.StringV(r.Name),
				relational.StringV(r.Segment), relational.StringV(r.Country),
			})
		}
		for _, tc := range []struct {
			rel  *relational.Relation
			want []relational.Row
		}{{sales, wantSales}, {customers, wantCustomers}} {
			requireColumnBuilt(t, tc.rel)
			if tc.rel.Len() != len(tc.want) {
				t.Fatalf("%s: Len %d, generator %d", tc.rel.Name, tc.rel.Len(), len(tc.want))
			}
			requireRows(t, tc.rel.Name, tc.want, tc.rel.RowView())
		}
	}
}

// TestOracleScanPinsNothing: the row-engine oracle over the demo catalog
// answers the benchmark's four statement classes like the batch engine,
// and scanning leaves no boxed copy of either table behind.
func TestOracleScanPinsNothing(t *testing.T) {
	oracleCfg := DefaultConfig()
	oracleCfg.Parallel = false
	oracle, batch := demoEngine(t, oracleCfg), demoEngine(t, DefaultConfig())
	for _, q := range benchmarkClasses {
		want, err := oracle.Session().Query(context.Background(), q)
		if err != nil {
			t.Fatalf("oracle: %s: %v", q, err)
		}
		got, err := batch.Session().Query(context.Background(), q)
		if err != nil {
			t.Fatalf("batch: %s: %v", q, err)
		}
		if want.Rows.Len() == 0 {
			t.Fatalf("%s: empty result proves nothing", q)
		}
		sameRelation(t, q, want.Rows, got.Rows)
	}
	for _, name := range []string{"sales", "customers"} {
		rel, _ := oracle.Table(name)
		if rel.Rows != nil {
			t.Fatalf("%s: the oracle's scan left %d boxed rows on the table", name, len(rel.Rows))
		}
	}
}

// BenchmarkRegisterDemo is the rung for what a library user pays before
// the first answer: generate the demo tables, register them, and run the
// scan class once (the first query builds whatever the catalog did not).
// B/op is the number to watch.
func BenchmarkRegisterDemo(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		eng, err := NewEngine(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		RegisterDemo(eng, 7, 1<<16, 2000)
		res, err := eng.Session().Query(context.Background(), benchmarkClasses[0])
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows.Len() == 0 {
			b.Fatal("scan returned no rows")
		}
	}
}
