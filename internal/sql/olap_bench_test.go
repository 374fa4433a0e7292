package sql

import (
	"context"
	"strings"
	"testing"

	"repro/internal/relational"
)

// olapClasses are the repository benchmark's four statement classes.
var olapClasses = []struct{ name, sql string }{
	{"scan", "SELECT order_id, price FROM sales WHERE year >= 2015 AND quantity <= 4"},
	{"join", "SELECT c.segment, COUNT(*) AS n, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2012 GROUP BY c.segment ORDER BY net DESC"},
	{"groupby", "SELECT customer_id, COUNT(*) AS n, SUM(price) AS revenue FROM sales GROUP BY customer_id ORDER BY revenue DESC, customer_id LIMIT 10"},
	{"topk", "SELECT order_id, price, quantity FROM sales WHERE year >= 2016 ORDER BY price DESC, order_id LIMIT 100"},
}

// BenchmarkOlapClasses is the single-query rung under the repository
// benchmark's olap workloads: its four class statements over 2^18 sales
// rows × 50k customers through a prepared, warmed Stmt, on the local
// engine and on 4 range-placed shards of a leaf-spine fabric. ms/op and
// B/op per class are the numbers, and agg_build_ms/op is the host time
// the class's aggregate spent building its groups (OpStats.BuildNs of the
// "agg" operator; classes without a GROUP BY report none):
//
//	go test -run '^$' -bench OlapClasses -benchtime 40x -cpu 2 ./internal/sql
func BenchmarkOlapClasses(b *testing.B) {
	for _, shape := range []struct {
		name   string
		shards int
	}{{"local", 0}, {"4shards", 4}} {
		cfg := DefaultConfig()
		if shape.shards > 0 {
			cfg.Distributed, cfg.Shards, cfg.Topology = true, shape.shards, "leafspine"
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		RegisterDemo(eng, 1, 1<<18, 50000)
		for _, c := range olapClasses {
			b.Run(shape.name+"/"+c.name, func(b *testing.B) {
				stmt, err := eng.Session().Prepare(c.sql)
				if err != nil {
					b.Fatal(err)
				}
				for range 2 { // build the columnar images and shard placements
					if _, err := stmt.Exec(context.Background()); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				var aggNs int64
				agg := false
				for b.Loop() {
					res, err := stmt.Exec(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					if res.Rows.Len() == 0 {
						b.Fatal("the statement returned no rows")
					}
					st, ok := res.Ops["agg"]
					aggNs, agg = aggNs+st.BuildNs, ok
				}
				if agg {
					b.ReportMetric(float64(aggNs)/1e6/float64(b.N), "agg_build_ms/op")
				}
			})
		}
	}
}

// BenchmarkGroupJoinShapes is the rung under the group-join, on the
// tables BenchmarkOlapClasses runs on: the join class statement, which
// runs as a group-join, and two shapes of it that take the join →
// aggregate tree instead — grouped by a probe column (s.year), which the
// planner keeps as a tree, and the class statement over a customers
// table whose key repeats (its first row appended again), which falls
// back once the build table is built. The fallbacks show what the
// group-join costs the statements it does not take:
//
//	go test -run '^$' -bench GroupJoinShapes -benchtime 40x -cpu 2 -benchmem ./internal/sql
func BenchmarkGroupJoinShapes(b *testing.B) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	RegisterDemo(eng, 1, 1<<18, 50000)
	cust := CustomersRelation(2, 50000)
	dup, err := cust.ExtendColumns(cust.Slice(0, 1).Columnar(), 1)
	if err != nil {
		b.Fatal(err)
	}
	eng.Register(relational.NewColumnRelation("customers_dup", dup.Schema, dup.Columnar(), dup.Len()))
	for _, c := range []struct{ name, sql string }{
		{"groupjoin", joinClassSQL},
		{"probe_key", strings.ReplaceAll(joinClassSQL, "c.segment", "s.year")},
		{"repeated_key", strings.Replace(joinClassSQL, "JOIN customers c", "JOIN customers_dup c", 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			stmt, err := eng.Session().Prepare(c.sql)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := stmt.Exec(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := stmt.Exec(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
