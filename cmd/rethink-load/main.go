// Command rethink-load is the serving load harness, a CLI over
// internal/loadgen: it drives thousands of concurrent sessions across
// multiple tenants against a rethinkd daemon (or an in-process engine)
// and reports per-tenant p50/p95/p99 latency, throughput, and
// net/spill/overlap breakdowns — human-readable on stdout and
// machine-readable with -json (the CI artifact format).
//
// Two latency distributions are reported per tenant: wall (client-
// observed request time) and model (the simulated fabric wall time plus
// spill I/O the server measured for the query). Tenant fabric weights
// show up in the model distribution — a weight-3 tenant's flows get 3x
// the bandwidth share of a weight-1 peer on shared bottlenecks, so its
// model p95 sits measurably lower under the same contention.
//
// With -gang the first wave of sessions is announced on the fabric's
// admission barrier, so all of them verifiably coexist in one round
// (PeakParties in the report equals the session count) instead of
// depending on goroutine timing.
//
// With -stream N the harness switches to streaming mode: it registers
// a fresh events relation, opens a continuous-query subscription on
// /v1/stream, pumps N events through the ingest path while windows
// emit live, closes the stream, and reports ingest throughput (events
// per second, batch count, modeled ingest-class fabric time) plus the
// subscription's window-freshness quantiles.
//
// Usage:
//
//	rethink-load -addr http://127.0.0.1:8343 -sessions 1000 -gang
//	rethink-load -inproc -sessions 1000 -queries-per 2 -json report.json
//	rethink-load -inproc -sessions 200 -shares gold=3,bronze=1 -verify
//	rethink-load -addr http://127.0.0.1:8343 -stream 200000 -json BENCH.json
//	rethink-load -inproc -stream 100000 -stream-window 2000 -stream-slide 500
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/sql"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rethink-load: ")
	addr := flag.String("addr", "", "target daemon base URL (e.g. http://127.0.0.1:8343); empty requires -inproc")
	inproc := flag.Bool("inproc", false, "boot a server in-process and drive it without sockets")
	sessions := flag.Int("sessions", 1000, "concurrent sessions")
	queriesPer := flag.Int("queries-per", 1, "statements per session")
	prepare := flag.Bool("prepare", true, "route statements through the server's prepared-statement cache")
	gang := flag.Bool("gang", false, "announce the first wave on the admission barrier (deterministic contention)")
	shares := flag.String("shares", "gold=1,bronze=1", "tenant session shares, name=share comma-separated (tenants must exist server-side)")
	keys := flag.String("keys", "gold=gold-key,bronze=bronze-key", "tenant API keys, name=key comma-separated")
	jsonOut := flag.String("json", "", "write the machine-readable report to this file")
	verify := flag.Bool("verify", false, "replay every distinct statement on a reference engine and compare rows (in-proc, or remote daemons started with the same -rows/-customers/-seed)")
	query := flag.String("query", "", "single statement to drive (empty = the default 3-statement mix)")
	streamN := flag.Int("stream", 0, "streaming mode: ingest this many events through /v1/stream under a live continuous-query subscription and report ingest throughput + window freshness (0 = query load)")
	streamBatch := flag.Int("stream-batch", 500, "events per ingest request in -stream mode")
	streamKeys := flag.Int("stream-keys", 50, "group-key cardinality in -stream mode")
	streamWindow := flag.Int64("stream-window", 1000, "window size in event-time ticks in -stream mode")
	streamSlide := flag.Int64("stream-slide", 250, "window slide in ticks in -stream mode (0 = tumbling)")
	// In-proc / verify reference engine knobs (match the daemon's flags).
	rows := flag.Int("rows", 20000, "demo sales rows for -inproc / -verify reference")
	customers := flag.Int("customers", 500, "demo customers for -inproc / -verify reference")
	seed := flag.Uint64("seed", 42, "demo seed for -inproc / -verify reference")
	shards := flag.Int("shards", 4, "worker hosts for the -inproc engine")
	topology := flag.String("topo", "leafspine", "fabric for the -inproc engine")
	pipelineChunk := flag.Int("pipeline-chunk", 0, "pipelined chunk size for the -inproc engine")
	flag.Parse()

	refEngine := func() *sql.Engine {
		cfg := sql.DefaultConfig()
		cfg.Distributed = true
		cfg.Shards = *shards
		cfg.Topology = *topology
		cfg.PipelineChunkRows = *pipelineChunk
		eng, err := sql.NewEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Placed as rethinkd -rows places them, so a verified daemon's
		// float aggregates fold in the same order.
		sql.RegisterDemo(eng, *seed, *rows, *customers)
		if err := sql.PlaceDemo(eng); err != nil {
			log.Fatal(err)
		}
		return eng
	}

	var target loadgen.Target
	switch {
	case *inproc:
		target.Handler = serve.New(refEngine(), serve.DefaultTenants(), serve.Options{}).Handler()
	case *addr != "":
		target.BaseURL = *addr
	default:
		log.Fatal("need -addr or -inproc")
	}

	var report any
	if *streamN > 0 {
		rep, err := loadgen.RunStreamLoad(context.Background(), loadgen.StreamLoadConfig{
			Target: target,
			Events: *streamN,
			Batch:  *streamBatch,
			Keys:   *streamKeys,
			Window: serve.WindowRequest{TimeCol: "t", Size: *streamWindow, Slide: *streamSlide},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(rep.Summary())
		report = rep
	} else {
		lc := loadgen.LoadConfig{
			Target:            target,
			Sessions:          *sessions,
			QueriesPerSession: *queriesPer,
			Prepare:           *prepare,
			Gang:              *gang,
			Tenants:           parseTenants(*shares, *keys),
		}
		if *query != "" {
			lc.Queries = []string{*query}
		}
		rep, err := loadgen.RunLoad(context.Background(), lc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(rep.Summary())
		if rep.TotalErrors > 0 {
			log.Fatalf("%d queries failed", rep.TotalErrors)
		}
		if *verify {
			if err := loadgen.VerifyAgainstEngine(rep, refEngine()); err != nil {
				log.Fatal(err)
			}
			fmt.Println("verify: served rows identical to direct library execution")
		}
		report = rep
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report: %s\n", *jsonOut)
	}
}

// parseTenants merges the -shares and -keys flags into the load tenant
// mix.
func parseTenants(shares, keys string) []loadgen.LoadTenant {
	keyOf := map[string]string{}
	for _, kv := range strings.Split(keys, ",") {
		name, key, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || name == "" || key == "" {
			log.Fatalf("bad -keys entry %q (want name=key)", kv)
		}
		keyOf[name] = key
	}
	var out []loadgen.LoadTenant
	for _, kv := range strings.Split(shares, ",") {
		name, shareStr, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || name == "" {
			log.Fatalf("bad -shares entry %q (want name=share)", kv)
		}
		share, err := strconv.Atoi(shareStr)
		if err != nil || share <= 0 {
			log.Fatalf("bad share for tenant %s: %q", name, shareStr)
		}
		key, ok := keyOf[name]
		if !ok {
			log.Fatalf("tenant %s has a share but no -keys entry", name)
		}
		out = append(out, loadgen.LoadTenant{Name: name, APIKey: key, Share: share})
	}
	if len(out) == 0 {
		log.Fatal("no tenants in -shares")
	}
	return out
}
