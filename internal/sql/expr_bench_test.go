package sql

import (
	"context"
	"runtime"
	"testing"
)

// BenchmarkExprForms is the expression rung: one node, 2^18 sales rows,
// every WHERE and select-item shape the typed programs serve, each beside
// an Int-range statement of similar output size ("twin"). Run it with
// -cpu 2; the engine takes GOMAXPROCS workers. ms/op, B/op and rows/op
// are the numbers.
func BenchmarkExprForms(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Workers = runtime.GOMAXPROCS(0)
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	RegisterDemo(eng, 1, 1<<18, 50000)
	for _, c := range []struct{ name, q string }{
		// Int ranges on the range kernels, ~15k rows out.
		{"int_range", "SELECT order_id FROM sales WHERE year >= 2015 AND quantity <= 4"},
		// Int inequalities, ~213k rows out, and their twin (~225k).
		{"int_ne", "SELECT order_id FROM sales WHERE year <> 2015 AND quantity <> 4"},
		{"int_ne_twin", "SELECT order_id FROM sales WHERE year >= 2011"},
		// Float comparisons with literals, 0 rows out.
		{"float_cmp", "SELECT order_id FROM sales WHERE price > 100.0 AND discount < 0.1"},
		// A coded String column against a value no row has, 0 rows out.
		{"string_eq", "SELECT order_id FROM sales WHERE region = 'EU'"},
		// The 0-row twin of both.
		{"empty_twin", "SELECT order_id FROM sales WHERE year < 2010"},
		// A disjunction, ~49k rows out, and its twin (~52k).
		{"int_or", "SELECT order_id FROM sales WHERE year = 2015 OR quantity = 4"},
		{"int_or_twin", "SELECT order_id FROM sales WHERE quantity <= 4"},
		// A computed select item against the pass-through projection.
		{"arith_project", "SELECT order_id, price * (1 - discount) FROM sales"},
		{"pass_project", "SELECT order_id, price FROM sales"},
	} {
		b.Run(c.name, func(b *testing.B) {
			stmt, err := eng.Session().Prepare(c.q)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			rows := 0
			for b.Loop() {
				res, err := stmt.Exec(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				rows += res.Rows.Len()
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
		})
	}
}
