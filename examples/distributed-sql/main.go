// Example distributed-sql runs the same analytics queries shard-parallel
// over different simulated datacenter fabrics and shard counts, showing
// what the RETHINK big roadmap argues: once a query spans hosts, its cost
// is dominated by what the network moves — build-side broadcasts, hash
// repartition shuffles and the final gather — not by the per-core scan
// speed. Every byte reported below was charged as a max-min-fair flow
// over the chosen topology, and results are row-for-row identical to the
// single-node engine.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/sql"
)

const (
	rows      = 40000
	customers = 800
)

// engine builds a fresh distributed engine over the demo catalog.
func engine(cfg sql.Config) *sql.Engine {
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sql.RegisterDemo(eng, 42, rows, customers)
	return eng
}

func distConfig(topology string, shards int) sql.Config {
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = shards
	cfg.Topology = topology
	return cfg
}

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	queries := []struct{ name, q string }{
		{"filter+topk", "SELECT order_id, price FROM sales WHERE year >= 2014 ORDER BY price DESC LIMIT 10"},
		{"groupby", "SELECT region, COUNT(*) AS n, SUM(price) AS revenue FROM sales GROUP BY region ORDER BY revenue DESC"},
		{"join+groupby", "SELECT c.segment, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY net DESC"},
	}

	fmt.Println("== distributed execution across fabrics (4 shards) ==")
	tbl := metrics.NewTable("per-query network cost by topology",
		"query", "topology", "flows", "bytes shuffled", "net time", "max link util")
	for _, topo := range []string{"single", "leafspine", "fattree", "torus"} {
		sess := engine(distConfig(topo, 4)).Session()
		for _, q := range queries {
			stats := mustRun(ctx, sess, q.q)
			tbl.AddRow(q.name, topo, fmt.Sprint(stats.Flows),
				metrics.FormatBytes(stats.BytesShuffled),
				metrics.FormatSeconds(stats.NetSeconds),
				fmt.Sprintf("%.1f%%", stats.MaxLinkUtil*100))
		}
	}
	fmt.Print(tbl.Render())

	fmt.Println("\n== broadcast vs repartition (join+groupby, leafspine) ==")
	tbl2 := metrics.NewTable("movement strategy vs shard count",
		"shards", "movement", "flows", "bytes shuffled", "net time")
	for _, shards := range []int{2, 4, 8} {
		eng := engine(distConfig("leafspine", shards))
		for _, strat := range []string{"auto", "broadcast", "repartition"} {
			// A per-session override: the same engine serves all three
			// movement strategies.
			sess := eng.Session()
			sess.DistJoin = strat
			stats := mustRun(ctx, sess, queries[2].q)
			tbl2.AddRow(fmt.Sprint(shards), strat, fmt.Sprint(stats.Flows),
				metrics.FormatBytes(stats.BytesShuffled),
				metrics.FormatSeconds(stats.NetSeconds))
		}
	}
	fmt.Print(tbl2.Render())

	// Cross-check: the distributed result equals the single-node engine's,
	// row for row.
	single, err := engine(sql.DefaultConfig()).Session().Query(ctx, queries[2].q)
	if err != nil {
		log.Fatal(err)
	}
	want := single.Rows
	// Hash placement on each table's first Int column (sales on order_id,
	// customers on customer_id).
	placed := engine(distConfig("leafspine", 8))
	for table, col := range map[string]string{"sales": "order_id", "customers": "customer_id"} {
		if err := placed.Place(table, col); err != nil {
			log.Fatal(err)
		}
	}
	got, err := placed.Session().Query(ctx, queries[2].q)
	if err != nil {
		log.Fatal(err)
	}
	if want.Len() != got.Rows.Len() {
		log.Fatalf("distributed result diverged: %d vs %d rows", want.Len(), got.Rows.Len())
	}
	wantRows, gotRows := want.RowView(), got.Rows.RowView()
	for i := range wantRows {
		for j := range wantRows[i] {
			a, b := wantRows[i][j], gotRows[i][j]
			diff := a.F - b.F
			if diff < 0 {
				diff = -diff
			}
			// Same relative float tolerance as the parity suite: the two
			// engines merge partial sums in different orders.
			tol := 1e-9
			if mag := a.F; mag > 1 || mag < -1 {
				if mag < 0 {
					mag = -mag
				}
				tol *= mag
			}
			if a.I != b.I || a.S != b.S || diff > tol {
				log.Fatalf("distributed result diverged at row %d col %d: %v vs %v", i, j, a, b)
			}
		}
	}
	fmt.Println("\ncross-check: 8-shard hash-partitioned output is row-for-row identical to the single-node engine")
}

func mustRun(ctx context.Context, sess *sql.Session, q string) *dist.QueryStats {
	res, err := sess.Query(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	return res.Net
}
