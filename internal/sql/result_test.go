package sql

import (
	"context"
	"testing"
)

// TestResultColumnarUntilRowView: batch and distributed runs hand their
// result over as the engine drained it — column vectors, no row boxed —
// so Result.Rows.Rows stays nil until a caller asks RowView(), and the
// view then equals the row engine's result row for row. An empty result
// and a bare COUNT(*) (zero-column pre-projection) ride along.
func TestResultColumnarUntilRowView(t *testing.T) {
	engine := func(set func(*Config)) *Engine {
		cfg := DefaultConfig()
		set(&cfg)
		return demoEngine(t, cfg)
	}
	oracle := engine(func(c *Config) { c.Parallel = false })
	engines := map[string]*Engine{
		"batch":       engine(func(*Config) {}),
		"distributed": engine(func(c *Config) { c.Distributed, c.Shards = true, 4 }),
		"chunked":     engine(func(c *Config) { c.Distributed, c.Shards, c.PipelineChunkRows = true, 4, 256 }),
	}
	queries := append([]string{"SELECT COUNT(*) FROM sales"}, parityQueries...)
	for _, q := range queries {
		want, err := oracle.Session().Query(context.Background(), q)
		if err != nil {
			t.Fatalf("oracle: %s: %v", q, err)
		}
		if want.Rows.Len() > 0 && want.Rows.Rows == nil {
			t.Fatalf("oracle: %s: the row engine returned no row store", q)
		}
		for name, eng := range engines {
			got, err := eng.Session().Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q, err)
			}
			if got.Rows.Rows != nil {
				t.Fatalf("%s: %s: result rows were boxed before anyone asked", name, q)
			}
			if cols := got.Rows.Columnar(); len(cols) != len(got.Rows.Schema) {
				t.Fatalf("%s: %s: %d vectors for %d columns", name, q, len(cols), len(got.Rows.Schema))
			}
			sameRelation(t, name+": "+q, want.Rows, got.Rows)
			if got.Rows.Len() > 0 && got.Rows.Rows == nil {
				t.Fatalf("%s: %s: RowView did not keep the boxed rows", name, q)
			}
		}
	}
}

// BenchmarkResultPath is the attribution rung for the result path: the
// benchmark's scan statement — the class with the widest result — from
// Query to a column-built Result, single-node and on 4 shards. A
// regression in scan allocation or in the last drain shows here without
// the full ladder.
func BenchmarkResultPath(b *testing.B) {
	const scan = "SELECT order_id, price FROM sales WHERE year >= 2015 AND quantity <= 4"
	for name, set := range map[string]func(*Config){
		"local":   func(*Config) {},
		"4shards": func(c *Config) { c.Distributed, c.Shards = true, 4 },
	} {
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			set(&cfg)
			eng, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			RegisterDemo(eng, 7, 1<<18, 2000)
			stmt, err := eng.Session().Prepare(scan)
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
					b.Fatal("scan returned no rows")
				}
			}
		})
	}
}
