// Command rethink-sql runs SQL queries against the synthetic star schema
// (sales × customers) on the internal relational engine, through the
// Engine/Session API.
//
// Queries run on the morsel-parallel batch engine by default; -serial
// selects the volcano row-at-a-time engine for comparison, and -dist
// executes shard-parallel across a simulated datacenter fabric, printing
// the simulated network cost (bytes shuffled, flow time, link
// utilization) after each result. With -concurrency N the query list is
// executed by N parallel sessions against the engine's one shared
// fabric, and the per-query network times show the contention; an
// aggregate fabric report (admission rounds, peak coexisting queries and
// flows, hot-link utilization, per-class bytes) closes the run.
//
// QoS: -priority and -weight give the first concurrent session a QoS
// class and a weighted-max-min scheduling weight (its peers stay
// best-effort at weight 1), demonstrating that a weighted session's
// network time degrades less under the same contention; -sdn plugs a
// fabric controller policy (baseline, reroute, priority,
// reroute+priority) into the engine's shared fabric.
//
// Heterogeneous execution: -devices cpu,gpu,fpga gives the batch engine
// a modeled device set and -placement picks the morsel placement policy
// (auto = cost-based per morsel; cpu/gpu/fpga force every morsel onto
// one device). Each result then prints the per-device morsel counts and
// modeled seconds/energy, with offload transfer/launch/reconfiguration
// overheads broken out; rows are identical across placements.
//
// Pipelined execution: -pipeline-chunk N splits every distributed
// movement phase (broadcast, shuffle, gather) into N-row chunks whose
// fabric flows overlap the receiving side's compute — hash builds fill,
// partial aggregates fold and the coordinator merge advances while the
// next chunk is in flight. Results are identical at every chunk size;
// the per-query network report gains measured chunk-compute and overlap
// lines plus the effective pipelined wall time.
//
// Out-of-core execution: -mem-budget caps the bytes of operator state
// (hash-join build tables, aggregate maps, sort runs) a query may hold
// resident; overflow grace-partitions or runs to the -spill-tier (nvm,
// ssd, disk) and each result prints the spill report — partitions
// evicted, bytes moved, modeled tier write/read time and energy. Rows
// are identical at every budget.
//
// Streaming execution: -stream N feeds N synthetic events into a
// growing relation through the append path while a continuous query
// (the query argument, or a default per-key aggregate) runs against it
// — each event-time window prints as the watermark emits it, computed
// incrementally from per-pane partial aggregates, and the closing
// report shows late/dropped accounting, window freshness quantiles and
// (with -dist) the fabric bytes billed to the ingest QoS class.
//
// JSON output: -json renders each result as one canonical wire-format
// document per line — the same encoding (internal/serve/wire) the
// rethinkd daemon serves and rethink-load reports, so downstream
// tooling parses one format regardless of which surface produced it.
//
// Usage:
//
//	rethink-sql -rows 50000 "SELECT region, COUNT(*) FROM sales GROUP BY region"
//	rethink-sql -json -dist "SELECT ... "           # wire-format JSON per result
//	rethink-sql -explain "SELECT ... "
//	rethink-sql -serial "SELECT ... "
//	rethink-sql -devices cpu,gpu,fpga -placement auto "SELECT ... "
//	rethink-sql -dist -devices cpu,gpu,fpga "SELECT ... "  # per-shard placement
//	rethink-sql -dist -shards 8 -topo fattree "SELECT ... "
//	rethink-sql -dist -pipeline-chunk 256 "SELECT ... "  # pipelined movement
//	rethink-sql -mem-budget 262144 -spill-tier ssd "SELECT ... "
//	rethink-sql -dist -concurrency 4                # demo queries, 4 parallel sessions
//	rethink-sql -dist -concurrency 4 -priority interactive -weight 3
//	rethink-sql -dist -sdn reroute+priority -concurrency 4
//	rethink-sql -dist -replication 2 -chaos 'kill:1@0:0.5' "SELECT ... "
//	rethink-sql -timeout 100ms "SELECT ... "        # context cancellation
//	rethink-sql -stream 20000 -stream-window 200    # continuous query demo
//	rethink-sql -dist -stream 20000 "SELECT k, COUNT(*) AS n FROM events GROUP BY k"
//	rethink-sql                                     # runs a demo query set
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/lifecycle"
	"repro/internal/memtier"
	"repro/internal/metrics"
	"repro/internal/relational"
	"repro/internal/sdn"
	"repro/internal/serve/wire"
	"repro/internal/sql"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rethink-sql: ")
	rows := flag.Int("rows", 20000, "sales fact rows")
	customers := flag.Int("customers", 500, "customer dimension rows")
	seed := flag.Uint64("seed", 42, "data generation seed")
	explain := flag.Bool("explain", false, "print the plan instead of executing")
	serial := flag.Bool("serial", false, "run on the row-at-a-time engine instead of the batch engine")
	workers := flag.Int("workers", 0, "batch engine workers per host (0 = NumCPU)")
	distMode := flag.Bool("dist", false, "execute shard-parallel over a simulated datacenter fabric")
	shards := flag.Int("shards", 4, "worker hosts in distributed mode")
	topology := flag.String("topo", "leafspine", "distributed fabric: leafspine, single, fattree, torus")
	distJoin := flag.String("dist-join", "auto", "distributed join movement: auto, broadcast, repartition")
	pipelineChunk := flag.Int("pipeline-chunk", 0, "pipelined movement chunk size in rows; phases overlap compute with the next chunk's flows (0 = bulk phases)")
	concurrency := flag.Int("concurrency", 1, "parallel sessions executing the query list against the shared fabric")
	timeout := flag.Duration("timeout", 0, "per-query context timeout (0 = none)")
	priority := flag.String("priority", "", "QoS class for the first session (others stay best-effort); e.g. interactive, batch")
	weight := flag.Float64("weight", 0, "weighted-max-min scheduling weight for the first session (0 = uniform)")
	sdnPolicy := flag.String("sdn", "", "fabric controller policy: "+strings.Join(sdn.Policies, ", ")+" (empty = fixed data plane)")
	devices := flag.String("devices", "", "heterogeneous device set, comma-separated from "+strings.Join(exec.DeviceNames, ",")+" (empty = homogeneous CPU engine)")
	placement := flag.String("placement", "auto", "morsel placement policy over -devices: "+strings.Join(exec.Placements, ", "))
	memBudget := flag.Int64("mem-budget", 0, "operator-state memory budget in bytes; overflow spills to -spill-tier (0 = unbudgeted)")
	spillTier := flag.String("spill-tier", "", "spill tier for budget overflow: "+strings.Join(memtier.SpillTiers, ", ")+" (default ssd when budgeted)")
	jsonOut := flag.Bool("json", false, "emit each result as one canonical wire-format JSON document (the same encoding rethinkd serves) instead of tables")
	replication := flag.Int("replication", 0, "shard replica count (0 and 1: one copy; R>1 adds read-side failover; requires -dist)")
	chaos := flag.String("chaos", "", "fault schedule: kill:W@P[:FRAC],slow:W@R[:FACTOR],degrade:W@P[:FACTOR],partition:W@P,seed:N (requires -dist)")
	streamN := flag.Int("stream", 0, "streaming demo: feed this many synthetic events into a growing relation under a continuous query, printing each window as the watermark emits it (0 = off; the query argument, or a default per-key aggregate, is the continuous query)")
	streamWindow := flag.Int64("stream-window", 100, "window size in event-time ticks for -stream")
	streamSlide := flag.Int64("stream-slide", 0, "window slide in ticks for -stream (0 = tumbling)")
	streamLateness := flag.Int64("stream-lateness", 5, "event-time disorder to absorb before emitting, for -stream")
	flag.Parse()

	cfg := sql.DefaultConfig()
	cfg.Parallel = !*serial
	cfg.Workers = *workers
	cfg.Distributed = *distMode
	cfg.Shards = *shards
	cfg.Topology = *topology
	cfg.DistJoin = *distJoin
	cfg.PipelineChunkRows = *pipelineChunk
	if *devices != "" {
		cfg.Devices = strings.Split(*devices, ",")
		cfg.Placement = *placement
	}
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
		// The controller binds its topology view from the engine fabric's
		// first admission round.
		cfg.Controller = sdn.NewNetController(nil, pol, 4096)
	}
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sql.RegisterDemo(eng, *seed, *rows, *customers)
	if *distMode {
		// Co-placed on customer_id, as rethinkd places them.
		if err := sql.PlaceDemo(eng); err != nil {
			log.Fatal(err)
		}
	}

	if *streamN > 0 {
		q := ""
		if args := flag.Args(); len(args) > 0 {
			q = args[0]
		}
		if err := runStreamDemo(eng, q, *streamN, *streamWindow, *streamSlide, *streamLateness); err != nil {
			log.Fatal(err)
		}
		return
	}

	queries := flag.Args()
	if len(queries) == 0 {
		queries = []string{
			"SELECT region, COUNT(*) AS orders, SUM(price) AS revenue FROM sales GROUP BY region ORDER BY revenue DESC",
			"SELECT c.segment, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY net DESC",
			"SELECT product, MAX(price) AS top_price FROM sales WHERE year >= 2014 GROUP BY product ORDER BY top_price DESC LIMIT 5",
		}
	}

	if *explain {
		sess := eng.Session()
		for _, q := range queries {
			fmt.Printf("sql> %s\n", q)
			plan, err := sess.Explain(q)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(plan)
			fmt.Println()
		}
		return
	}

	if *concurrency <= 1 {
		sess := eng.Session()
		sess.Priority, sess.Weight = *priority, *weight
		for _, q := range queries {
			out, err := runOne(sess, q, *timeout, *jsonOut)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(out)
		}
		return
	}

	// Concurrent mode: n sessions drain the query list in parallel. With
	// a distributed engine they share its one fabric; the admission
	// barrier guarantees the first wave of queries actually coexists.
	n := *concurrency
	if n > len(queries) {
		n = len(queries)
	}
	if fab := eng.Fabric(); fab != nil {
		fab.Expect(n)
	}
	work := make(chan string, len(queries))
	for _, q := range queries {
		work <- q
	}
	close(work)
	outputs := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := eng.Session()
			if i == 0 {
				// The flagged session: its peers stay best-effort, so the
				// per-query admission lines show the weighted session's net
				// time degrading less on the same fabric.
				sess.Priority, sess.Weight = *priority, *weight
			}
			var b strings.Builder
			// One idempotent release handle per session: if an error ever
			// grows a second release site (a cancellation hook, a retry
			// loop), the Expect slot still comes back exactly once.
			var slot *dist.Slot
			if fab := eng.Fabric(); fab != nil {
				slot = fab.Claim()
			}
			for q := range work {
				out, err := runOne(sess, q, *timeout, *jsonOut)
				if err != nil {
					errs[i] = err
					// This session dies before (or between) fabric
					// registrations; release its Expect slot so the
					// surviving sessions' admission barrier resolves.
					slot.Withdraw()
					return
				}
				b.WriteString(out)
			}
			outputs[i] = b.String()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}
	for _, out := range outputs {
		fmt.Print(out)
	}
	if fab := eng.Fabric(); fab != nil {
		fmt.Printf("== aggregate contention (%d sessions) ==\n%s\n", n, fab.Stats().Summary())
	}
}

// runStreamDemo grows an events relation live under a continuous query:
// n synthetic events (keys k0..k9, mildly disordered event time, value
// = event index mod 17) stream in batches through the append path while
// the subscription prints each window the watermark emits. The closing
// flush drains the tail, then the stream report (events, late/dropped,
// freshness quantiles, spill) and — distributed — the fabric's
// ingest-class bytes close the run.
func runStreamDemo(eng *sql.Engine, query string, n int, size, slide, lateness int64) error {
	eng.Register(relational.NewRelation("events", relational.Schema{
		{Name: "k", Type: relational.String},
		{Name: "t", Type: relational.Int},
		{Name: "v", Type: relational.Int},
	}))
	if query == "" {
		query = "SELECT k, SUM(v) AS total, COUNT(*) AS events FROM events GROUP BY k"
	}
	sess := eng.Session()
	spec := stream.WindowSpec{TimeCol: "t", Size: size, Slide: slide, Lateness: lateness}
	sub, err := sess.Subscribe(context.Background(), query, spec)
	if err != nil {
		return err
	}
	src, err := sess.StreamSource("events")
	if err != nil {
		return err
	}
	effSlide := slide
	if effSlide == 0 {
		effSlide = size
	}
	fmt.Printf("stream> %s\n", query)
	fmt.Printf("  window size %d slide %d lateness %d over %d events\n\n", size, effSlide, lateness, n)

	feedErr := make(chan error, 1)
	go func() {
		defer src.Close()
		const batch = 256
		rows := make([]relational.Row, 0, batch)
		for i := 0; i < n; i++ {
			// Event time advances every other event and jitters backwards
			// within the lateness bound, so the watermark machinery has
			// disorder to absorb.
			t := int64(i/2) - int64(i%3)
			if t < 0 {
				t = 0
			}
			rows = append(rows, relational.Row{
				relational.StringV(fmt.Sprintf("k%d", i%10)),
				relational.IntV(t),
				relational.IntV(int64(i % 17)),
			})
			if len(rows) == batch || i == n-1 {
				if err := src.Append(rows...); err != nil {
					feedErr <- err
					return
				}
				rows = rows[:0]
			}
		}
		feedErr <- nil
	}()

	for win := range sub.Out() {
		fmt.Printf("window [%d, %d): %d events", win.Start, win.End, win.Events)
		if win.Late > 0 {
			fmt.Printf(" (%d late)", win.Late)
		}
		fmt.Printf(", %d groups\n", win.Rows.Len())
		fmt.Print(renderRelation(win.Rows))
	}
	if err := <-feedErr; err != nil {
		return err
	}
	if err := sub.Err(); err != nil {
		return err
	}
	st := sub.Stats()
	fmt.Printf("\nstream report: %d events (%d filtered, %d late, %d dropped), %d windows\n",
		st.Events, st.Filtered, st.Late, st.Dropped, st.Windows)
	fmt.Printf("  freshness: p50 %.2fms p95 %.2fms max %.2fms\n",
		st.FreshnessP50*1e3, st.FreshnessP95*1e3, st.FreshnessMax*1e3)
	if st.Spill != nil && st.Spill.Active() {
		fmt.Printf("  %s\n", st.Spill)
	}
	ist := src.Stats()
	fmt.Printf("  ingest: %d batches, %s", ist.Batches, metrics.FormatBytes(ist.Bytes))
	if ist.NetSeconds > 0 {
		fmt.Printf(", %s modeled fabric time", metrics.FormatSeconds(ist.NetSeconds))
	}
	fmt.Println()
	if fab := eng.Fabric(); fab != nil {
		fmt.Printf("  fabric ingest-class bytes: %s\n", metrics.FormatBytes(fab.Stats().ClassBytes[sql.IngestClass]))
	}
	return nil
}

// runOne executes one query on the session and renders its result block
// — human-readable tables, or (jsonOut) the canonical wire encoding
// shared with the rethinkd daemon and the rethink-load reports.
func runOne(sess *sql.Session, q string, timeout time.Duration, jsonOut bool) (string, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := sess.Query(ctx, q)
	if err != nil {
		return "", fmt.Errorf("%s: %w", q, err)
	}
	if jsonOut {
		doc := struct {
			SQL string `json:"sql"`
			*wire.Result
		}{SQL: q, Result: wire.FromResult(res)}
		data, err := json.Marshal(doc)
		if err != nil {
			return "", err
		}
		return string(data) + "\n", nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sql> %s\n", q)
	b.WriteString(renderRelation(res.Rows))
	if res.Devices != nil {
		fmt.Fprintf(&b, "  placement %s over %d device(s):\n", res.Placement, len(res.Devices))
		for _, d := range res.Devices {
			fmt.Fprintf(&b, "    %s\n", d)
		}
	}
	if res.Spill != nil {
		if res.Spill.Active() {
			fmt.Fprintf(&b, "  %s\n", res.Spill)
		} else {
			fmt.Fprintf(&b, "  spill: none (state fit the budget)\n")
		}
	}
	if res.Net != nil {
		b.WriteString(res.Net.Summary())
		b.WriteByte('\n')
		fmt.Fprintf(&b, "  (%s over the fabric in %s)\n",
			metrics.FormatBytes(res.Net.BytesShuffled), metrics.FormatSeconds(res.Net.NetSeconds))
	}
	b.WriteByte('\n')
	return b.String(), nil
}

func renderRelation(rel *relational.Relation) string {
	headers := make([]string, len(rel.Schema))
	for i, c := range rel.Schema {
		headers[i] = c.Name
	}
	t := metrics.NewTable(fmt.Sprintf("%d rows", rel.Len()), headers...)
	for _, row := range rel.RowView() {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		t.AddRow(cells...)
	}
	return t.Render()
}
