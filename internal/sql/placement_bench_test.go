package sql

import (
	"context"
	"testing"
)

// BenchmarkDistJoinPlacement is the placement rung: the repository
// benchmark's join statement at its serving size (2^16 sales × 50k
// customers) through a prepared Stmt, on a single node, on 4 range-placed
// shards (the join repartitions both sides) and on 4 shards co-placed on
// customer_id (the join moves nothing). ms/op and B/op are the numbers.
func BenchmarkDistJoinPlacement(b *testing.B) {
	const join = "SELECT c.segment, COUNT(*) AS n, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2012 GROUP BY c.segment ORDER BY net DESC"
	for _, c := range []struct {
		name   string
		shards int
		place  bool
	}{{"single", 0, false}, {"range", 4, false}, {"coplaced", 4, true}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Distributed, cfg.Shards = c.shards > 0, c.shards
			eng, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			RegisterDemo(eng, 531, 1<<16, 50000)
			if c.place {
				if err := PlaceDemo(eng); err != nil {
					b.Fatal(err)
				}
			}
			stmt, err := eng.Session().Prepare(join)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				res, err := stmt.Exec(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if res.Rows.Len() == 0 {
					b.Fatal("join returned no rows")
				}
			}
		})
	}
}
