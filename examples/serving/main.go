// Example serving boots the multi-tenant serving front door in-process
// and drives it with the load harness: one shared sql.Engine behind the
// rethinkd HTTP surface, two tenants at fabric weight 3:1 ("gold" in
// the interactive class, "bronze" best-effort), and one gang-announced
// wave of concurrent sessions so every query verifiably contends in the
// same admission round.
//
// The point the numbers make is the serving restatement of the
// concurrent-sql example: under identical statements and identical
// contention, the weight-3 tenant's modeled latency distribution (the
// simulated fabric wall time the server reports per query) sits
// measurably below the weight-1 tenant's, the plan cache serves every
// repeat submission, and the rows every session saw are byte-identical
// to direct library execution — QoS shapes *when*, never *what*.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/sql"
)

const (
	rows      = 20000
	customers = 400
	shards    = 4
	sessions  = 200
)

func engine() *sql.Engine {
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = shards
	cfg.Topology = "leafspine"
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sql.RegisterDemo(eng, 42, rows, customers)
	return eng
}

func main() {
	srv := serve.New(engine(), serve.DefaultTenants(), serve.Options{})
	fmt.Printf("serving: in-process rethinkd over %d demo rows, %d shards; gold weight 3 (interactive) vs bronze weight 1\n\n", rows, shards)

	report, err := loadgen.RunLoad(context.Background(), loadgen.LoadConfig{
		Target:            loadgen.Target{Handler: srv.Handler()},
		Sessions:          sessions,
		QueriesPerSession: 2,
		Prepare:           true,
		Gang:              true,
		Tenants: []loadgen.LoadTenant{
			{Name: "gold", APIKey: "gold-key", Share: 1},
			{Name: "bronze", APIKey: "bronze-key", Share: 1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.Summary())
	if report.TotalErrors > 0 {
		log.Fatalf("%d queries failed", report.TotalErrors)
	}

	gold, bronze := report.Tenants["gold"], report.Tenants["bronze"]
	fmt.Printf("\nweighted QoS, served: gold model p95 %.2f ms vs bronze %.2f ms (%.2fx)\n",
		gold.Model.P95, bronze.Model.P95, bronze.Model.P95/gold.Model.P95)
	if gold.Model.P95 >= bronze.Model.P95 {
		log.Fatal("expected the weight-3 tenant's model p95 below the weight-1 tenant's")
	}

	if err := loadgen.VerifyAgainstEngine(report, engine()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verify: every session's rows identical to direct library execution")
}
