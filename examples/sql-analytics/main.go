// sql-analytics shows Section IV.C.1's abstraction stack end-to-end: the
// same revenue-by-segment analytics expressed as a SQL query (with the
// optimizer visible via EXPLAIN) and as a dataflow pipeline, with the
// results cross-checked.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/dataflow"
	"repro/internal/sql"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	const (
		seed      = 42
		salesRows = 30000
		customers = 400
	)
	ctx := context.Background()

	// --- Declarative: SQL with the optimizer on, through Engine/Session.
	eng, err := sql.NewEngine(sql.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sql.RegisterDemo(eng, seed, salesRows, customers)
	query := `SELECT c.segment, SUM(s.price * (1 - s.discount)) AS revenue
	          FROM sales s JOIN customers c ON s.customer_id = c.customer_id
	          WHERE s.year >= 2012
	          GROUP BY c.segment ORDER BY revenue DESC`
	// Prepare once: the same statement re-executes below on demand.
	stmt, err := eng.Session().Prepare(query)
	if err != nil {
		log.Fatal(err)
	}
	res, err := stmt.Exec(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("EXPLAIN:")
	fmt.Println(res.Explain())
	fmt.Println("\nSQL result:")
	sqlRev := map[string]float64{}
	for _, row := range res.Rows.RowView() {
		fmt.Printf("  %-12s %12.2f\n", row[0].S, row[1].F)
		sqlRev[row[0].S] = row[1].F
	}
	fmt.Printf("\noperator stats: scanned %d sales rows, aggregated to %d groups\n",
		res.Ops["scan:s"].RowsOut, res.Ops["agg"].RowsOut)

	// --- Same query on the serial row engine: the batch engine must agree.
	serialCfg := sql.DefaultConfig()
	serialCfg.Parallel = false
	serialEng, err := sql.NewEngine(serialCfg)
	if err != nil {
		log.Fatal(err)
	}
	sql.RegisterDemo(serialEng, seed, salesRows, customers)
	serialRes, err := serialEng.Session().Query(ctx, query)
	if err != nil {
		log.Fatal(err)
	}
	if serialRes.Rows.Len() != res.Rows.Len() {
		log.Fatalf("engine mismatch: %d parallel rows vs %d serial rows", res.Rows.Len(), serialRes.Rows.Len())
	}
	batchRows := res.Rows.RowView()
	for i, row := range serialRes.Rows.RowView() {
		if row[0].S != batchRows[i][0].S || math.Abs(row[1].F-batchRows[i][1].F) > 1e-6*math.Abs(row[1].F) {
			log.Fatalf("engine mismatch at row %d: %v vs %v", i, batchRows[i], row)
		}
	}
	fmt.Println("batch engine matches row-at-a-time engine ✓")

	// --- Prepared statements re-execute with fresh stats every run.
	again, err := stmt.Exec(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if again.Rows.Len() != res.Rows.Len() || again.Ops["scan:s"].RowsOut != res.Ops["scan:s"].RowsOut {
		log.Fatalf("prepared re-execution diverged: %d rows, %d scanned",
			again.Rows.Len(), again.Ops["scan:s"].RowsOut)
	}
	fmt.Println("prepared statement re-executed with fresh stats ✓")

	// --- The same analytics as an explicit dataflow pipeline.
	sales := workload.Sales(seed, salesRows, customers)
	custs := workload.Customers(seed+1, customers)
	salesDS := dataflow.FromSlice("sales", sales, 8)
	filtered := dataflow.Filter(salesDS, func(s workload.SalesRow) bool { return s.Year >= 2012 })
	bySale := dataflow.Map(dataflow.KeyBy(filtered, func(s workload.SalesRow) int64 { return s.CustomerID }),
		func(p dataflow.Pair[int64, workload.SalesRow]) dataflow.Pair[int64, float64] {
			return dataflow.Pair[int64, float64]{Key: p.Key, Val: p.Val.Price * (1 - p.Val.Discount)}
		})
	custDS := dataflow.KeyBy(dataflow.FromSlice("customers", custs, 8),
		func(c workload.CustomerRow) int64 { return c.CustomerID })
	joined := dataflow.Join(bySale, custDS)
	seg := dataflow.Map(joined, func(p dataflow.Pair[int64, dataflow.Joined[float64, workload.CustomerRow]]) dataflow.Pair[string, float64] {
		return dataflow.Pair[string, float64]{Key: p.Val.Right.Segment, Val: p.Val.Left}
	})
	out, err := dataflow.Collect(dataflow.ReduceByKey(seg, func(a, b float64) float64 { return a + b }))
	if err != nil {
		log.Fatal(err)
	}
	stages, tasks, shuffled := salesDS.M.Snapshot()
	fmt.Printf("\ndataflow: %d stages, %d tasks, %d records shuffled\n", stages, tasks, shuffled)

	// --- Cross-check.
	for _, kv := range out {
		want := sqlRev[kv.Key]
		if math.Abs(kv.Val-want) > 1e-6*math.Abs(want) {
			log.Fatalf("MISMATCH %s: dataflow %.2f vs sql %.2f", kv.Key, kv.Val, want)
		}
	}
	fmt.Println("dataflow result matches SQL exactly ✓")
}
