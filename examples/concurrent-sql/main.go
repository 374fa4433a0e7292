// Example concurrent-sql demonstrates fabric interference between SQL
// sessions — the multi-query contention the RETHINK big roadmap says
// big-data engines must be co-designed around. Two queries run first in
// isolation (each on its own fresh fabric) and then simultaneously as
// two sessions of ONE engine, whose single shared network simulator
// admits both queries' broadcasts, shuffles and gathers as coexisting
// flows. The same queries, the same data and the same topology get
// measurably slower per query — while the fabric's hot links get busier
// — purely because the flows now share links.
//
// The final act is the control plane's answer: the same contended pair
// re-runs with session A marked high-priority at weight 3 while B stays
// best-effort. The fabric's weighted max-min allocator gives A's flows
// three times the bandwidth on every shared bottleneck, so A's net time
// degrades far less than under uniform contention — B pays for it —
// and the per-class byte attribution shows exactly who used the fabric.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sql"
	"repro/internal/workload"

	"repro/internal/relational"
)

const (
	rows      = 30000
	customers = 600
	shards    = 4
)

// queryA moves a lot of data twice (two repartition shuffles) before a
// wide gather; queryB is one shuffle and a narrow gather. Their phase
// structures are deliberately different so contention overlaps phases
// with different bottleneck links.
const (
	queryA = "SELECT s.order_id, s.price, c.segment, p.margin FROM sales s JOIN customers c ON s.customer_id = c.customer_id JOIN products p ON s.product = p.product"
	queryB = "SELECT s.order_id FROM sales s JOIN customers c ON s.customer_id = c.customer_id"
)

func engine() *sql.Engine {
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = shards
	cfg.Topology = "single"
	cfg.DistJoin = "repartition"
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sql.RegisterDemo(eng, 42, rows, customers)
	products := relational.NewRelation("products", relational.Schema{
		{Name: "product", Type: relational.String},
		{Name: "margin", Type: relational.Float},
	})
	for i, p := range workload.Products {
		products.MustAppend(relational.Row{relational.StringV(p), relational.FloatV(0.1 + 0.05*float64(i))})
	}
	eng.Register(products)
	return eng
}

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// Isolated baselines: fresh engine (fresh fabric) per query.
	isoA, err := engine().Session().Query(ctx, queryA)
	if err != nil {
		log.Fatal(err)
	}
	isoB, err := engine().Session().Query(ctx, queryB)
	if err != nil {
		log.Fatal(err)
	}

	// Contended run: two sessions, ONE engine, one shared fabric. The
	// Expect barrier guarantees the first admission round really contains
	// both queries regardless of goroutine scheduling.
	eng := engine()
	eng.Fabric().Expect(2)
	var wg sync.WaitGroup
	var conA, conB *sql.Result
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); conA, errA = eng.Session().Query(ctx, queryA) }()
	go func() { defer wg.Done(); conB, errB = eng.Session().Query(ctx, queryB) }()
	wg.Wait()
	if errA != nil || errB != nil {
		log.Fatalf("concurrent queries failed: %v / %v", errA, errB)
	}
	if conA.Rows.Len() != isoA.Rows.Len() || conB.Rows.Len() != isoB.Rows.Len() {
		log.Fatal("contended results diverged from isolated runs")
	}

	// Weighted re-run: the same contended pair, but session A is
	// high-priority at weight 3 while B stays best-effort at weight 1.
	wEng := engine()
	wEng.Fabric().Expect(2)
	sessA := wEng.Session()
	sessA.Priority, sessA.Weight = "interactive", 3
	sessB := wEng.Session()
	sessB.Priority = "batch"
	var wconA, wconB *sql.Result
	wg.Add(2)
	go func() { defer wg.Done(); wconA, errA = sessA.Query(ctx, queryA) }()
	go func() { defer wg.Done(); wconB, errB = sessB.Query(ctx, queryB) }()
	wg.Wait()
	if errA != nil || errB != nil {
		log.Fatalf("weighted queries failed: %v / %v", errA, errB)
	}
	if wconA.Rows.Len() != isoA.Rows.Len() || wconB.Rows.Len() != isoB.Rows.Len() {
		log.Fatal("weighted results diverged from isolated runs")
	}

	fmt.Printf("== fabric interference (%d-shard %s fabric) ==\n", shards, "single-switch")
	tbl := metrics.NewTable("per-query network cost: isolated, contended 1:1, contended 3:1",
		"query", "mode", "bytes shuffled", "net time", "slowdown")
	add := func(name, mode string, iso, con *sql.Result) {
		slow := "1.00x"
		if con != iso {
			slow = fmt.Sprintf("%.2fx", con.Net.NetSeconds/iso.Net.NetSeconds)
		}
		tbl.AddRow(name, mode, metrics.FormatBytes(con.Net.BytesShuffled),
			metrics.FormatSeconds(con.Net.NetSeconds), slow)
	}
	add("A (2-join, wide)", "isolated", isoA, isoA)
	add("A (2-join, wide)", "contended 1:1", isoA, conA)
	add("A (2-join, wide)", "contended, weight 3", isoA, wconA)
	add("B (1-join, narrow)", "isolated", isoB, isoB)
	add("B (1-join, narrow)", "contended 1:1", isoB, conB)
	add("B (1-join, narrow)", "contended, weight 1", isoB, wconB)
	fmt.Print(tbl.Render())
	fmt.Printf("\nweighted run: A joined %d rounds waiting %.3f ms at the barrier as class %q\n",
		wconA.Net.Adm.RoundsJoined, wconA.Net.Adm.BarrierWaitSeconds*1e3, wconA.Net.Adm.Class)

	fmt.Println("\n== shared-fabric aggregate (uniform weights) ==")
	fmt.Println(eng.Fabric().Stats().Summary())
	fmt.Println("\n== shared-fabric aggregate (3:1 weights) ==")
	fmt.Println(wEng.Fabric().Stats().Summary())
	fmt.Println("\nsame queries, same data, same fabric — contention slows queries down,")
	fmt.Println("and the control plane decides who absorbs the slowdown")
}
