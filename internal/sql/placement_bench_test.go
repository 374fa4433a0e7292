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
	placementRung(b, "SELECT c.segment, COUNT(*) AS n, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2012 GROUP BY c.segment ORDER BY net DESC")
}

// BenchmarkDistGroupPlacement is the group-by rung beside it: the
// repository benchmark's groupby statement, in the same three forms. On
// range-placed shards every shard ships its partial state of every group;
// co-placed on customer_id each shard finishes its own groups and ships
// its top 10. ms/op, B/op and gather-B/op are the numbers.
func BenchmarkDistGroupPlacement(b *testing.B) {
	placementRung(b, "SELECT customer_id, COUNT(*) AS n, SUM(price) AS revenue FROM sales GROUP BY customer_id ORDER BY revenue DESC, customer_id LIMIT 10")
}

// placementRung runs q over the demo tables at 2^16 × 50k on a single
// node, on 4 range-placed shards and on 4 shards co-placed on
// customer_id, reporting the bytes each query's gather moved.
func placementRung(b *testing.B, q string) {
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
			stmt, err := eng.Session().Prepare(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			gathered := 0.0
			for b.Loop() {
				res, err := stmt.Exec(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if res.Rows.Len() == 0 {
					b.Fatal("the statement returned no rows")
				}
				if res.Net != nil {
					for _, p := range res.Net.Phases {
						if p.Name == "gather" {
							gathered += p.Bytes
						}
					}
				}
			}
			b.ReportMetric(gathered/float64(b.N), "gather-B/op")
		})
	}
}
