// Command rethinkd is the long-lived multi-tenant serving daemon: one
// shared sql.Engine behind an HTTP/JSON wire surface. Tenants
// authenticate with API keys and their configured QoS (fabric
// class/weight), worker and memory-budget defaults apply to every query
// they submit, so a weight-3 tenant demonstrably gets three times the
// fabric share of a weight-1 tenant under contention.
//
// Endpoints (all JSON):
//
//	POST /v1/sql     {"sql": "...", "prepare": true}   run a statement
//	POST /v1/tables  {"name", "schema", "rows"}        register a relation
//	POST /v1/gang    {"announce": n} / {"withdraw": n} wave barrier
//	POST /v1/hosts   {"action": "drain|restore|join"}  elastic membership
//	GET  /metrics                                      fabric + cache + tenant + cluster counters
//	GET  /healthz                                      liveness (503 while draining)
//	POST /drain                                        graceful shutdown
//
// Prepared statements ("prepare": true) are cached server-side per
// (tenant, statement, session-config) and invalidated whenever the
// catalog epoch moves (any Register), so a cached plan can never
// outlive the relation it was planned against. Client disconnects
// cancel the running query through the engine's cancellation path.
// SIGINT/SIGTERM drain gracefully: in-flight queries finish, new ones
// get 503, unfilled gang slots are withdrawn from the admission
// barrier.
//
// Usage:
//
//	rethinkd -addr :8343                       # demo data, gold/bronze tenants
//	rethinkd -addr :8343 -tenants tenants.json # custom tenant set
//	rethinkd -shards 8 -topo fattree -rows 200000
//	rethinkd -sdn reroute+priority -pipeline-chunk 4096
//	rethinkd -replication 2 -chaos 'kill:1@0:0.5'      # chaos serving
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/sdn"
	"repro/internal/serve"
	"repro/internal/sql"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rethinkd: ")
	addr := flag.String("addr", ":8343", "listen address")
	tenantsFile := flag.String("tenants", "", "tenant config JSON (array of {name, api_key, priority, weight, ...}); empty = gold(3x,interactive)/bronze(1x) demo tenants")
	cacheCap := flag.Int("plan-cache", serve.DefaultCacheCap, "prepared-statement cache capacity (entries)")
	rows := flag.Int("rows", 20000, "demo sales fact rows (0 = start with an empty catalog)")
	customers := flag.Int("customers", 500, "demo customer dimension rows")
	seed := flag.Uint64("seed", 42, "demo data generation seed")
	workers := flag.Int("workers", 0, "batch engine workers per host (0 = NumCPU)")
	distMode := flag.Bool("dist", true, "execute shard-parallel over a simulated datacenter fabric (the serving default: tenant QoS needs a fabric to matter)")
	shards := flag.Int("shards", 4, "worker hosts in distributed mode")
	topology := flag.String("topo", "leafspine", "distributed fabric: leafspine, single, fattree, torus")
	distJoin := flag.String("dist-join", "auto", "distributed join movement: auto, broadcast, repartition")
	pipelineChunk := flag.Int("pipeline-chunk", 0, "pipelined movement chunk size in rows (0 = bulk phases)")
	sdnPolicy := flag.String("sdn", "", "fabric controller policy: "+strings.Join(sdn.Policies, ", ")+" (empty = fixed data plane)")
	memBudget := flag.Int64("mem-budget", 0, "engine-default operator-state memory budget in bytes (tenants may tighten)")
	spillTier := flag.String("spill-tier", "", "spill tier for budget overflow (default ssd when budgeted)")
	replication := flag.Int("replication", 0, "shard replica count (0 and 1: one copy; R>1 adds read-side failover — /v1/hosts works at every value)")
	chaos := flag.String("chaos", "", "fault schedule: kill:W@P[:FRAC],slow:W@R[:FACTOR],degrade:W@P[:FACTOR],partition:W@P,seed:N")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	flag.Parse()

	cfg := sql.DefaultConfig()
	cfg.Workers = *workers
	cfg.Distributed = *distMode
	cfg.Shards = *shards
	cfg.Topology = *topology
	cfg.DistJoin = *distJoin
	cfg.PipelineChunkRows = *pipelineChunk
	cfg.MemoryBudget = *memBudget
	cfg.SpillTier = *spillTier
	cfg.Replication = *replication
	if *chaos != "" {
		plan, err := lifecycle.ParsePlan(*chaos, *shards)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = plan
	}
	if *sdnPolicy != "" {
		pol := sdn.PolicyByName(*sdnPolicy)
		if pol == nil {
			log.Fatalf("unknown -sdn policy %q (have %s)", *sdnPolicy, strings.Join(sdn.Policies, ", "))
		}
		cfg.Controller = sdn.NewNetController(nil, pol, 4096)
	}
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *rows > 0 {
		// The demo tables are co-placed on customer_id: their join moves
		// nothing between shards.
		sql.RegisterDemo(eng, *seed, *rows, *customers)
		if err := sql.PlaceDemo(eng); err != nil {
			log.Fatal(err)
		}
	}

	tenants := serve.DefaultTenants()
	if *tenantsFile != "" {
		data, err := os.ReadFile(*tenantsFile)
		if err != nil {
			log.Fatal(err)
		}
		if tenants, err = serve.ParseTenants(data); err != nil {
			log.Fatal(err)
		}
	}
	srv := serve.New(eng, tenants, serve.Options{CacheCap: *cacheCap})

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()

	fmt.Printf("rethinkd: serving on %s (%d tenants", *addr, len(tenants.List()))
	for _, t := range tenants.List() {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		fmt.Printf("; %s weight %g", t.Name, w)
	}
	fmt.Printf(")\n")
	if *rows > 0 {
		fmt.Printf("rethinkd: demo catalog loaded: sales(%d rows), customers(%d rows)\n", *rows, *customers)
	}
	if *distMode {
		h := eng.Lifecycle().Health()
		fmt.Printf("rethinkd: cluster: replication %d, %d workers (%d spare hosts), %d scheduled faults\n",
			h.Replication, h.Workers, h.Spares, h.EventsTotal)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		log.Fatal(err)
	case s := <-sig:
		fmt.Printf("rethinkd: %v — draining (in-flight queries finish, new ones get 503)\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("drain: %v", err)
		}
		_ = httpSrv.Shutdown(ctx)
		fmt.Println("rethinkd: drained, bye")
	}
}
