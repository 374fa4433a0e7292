package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/kernels"
	"repro/internal/memtier"
	"repro/internal/relational"
	"repro/internal/sql"
)

// perLayer is reported by every workload of a traced run. Metrics of
// the workload pass read 0 on a workload that does not exercise the
// layer (olap_local moves no bytes, so dist.flows_per_op is 0 there);
// probe metrics time a layer's public functions on the demo tables and
// are defined identically on every workload. "=" marks values that must
// repeat exactly for one seed.
var perLayer = []metricDef{
	// Workload pass: the end-to-end classes split out, and the work each
	// layer reported in-band on the results.
	{Name: "scan_p50_ms", Unit: "ms"},
	{Name: "join_p50_ms", Unit: "ms"},
	{Name: "groupby_p50_ms", Unit: "ms"},
	{Name: "topk_p50_ms", Unit: "ms"},
	{Name: "ingest_p50_ms", Unit: "ms"},
	{Name: "serve.class_p90_ms.scan", Unit: "ms"},
	{Name: "serve.class_p90_ms.join", Unit: "ms"},
	{Name: "serve.class_p90_ms.groupby", Unit: "ms"},
	{Name: "serve.class_p90_ms.topk", Unit: "ms"},
	{Name: "alloc_mb_per_op", Unit: "MB"},
	{Name: "dist.model_ms_per_op", Unit: "model_ms", Exact: true},
	{Name: "dist.net_bytes_per_op", Unit: "bytes", Exact: true},
	{Name: "dist.phases_per_op", Unit: "count", Exact: true},
	{Name: "dist.flows_per_op", Unit: "count", Exact: true},
	{Name: "dist.chunks_per_op", Unit: "count", Exact: true},
	{Name: "dist.overlap_share", Unit: "ratio", Exact: true},
	{Name: "netsim.rounds_per_op", Unit: "count"},
	{Name: "netsim.peak_parties", Unit: "count", HigherBetter: true},
	{Name: "netsim.max_link_util", Unit: "ratio"},
	{Name: "netsim.barrier_wait_ms_p50", Unit: "ms"},
	{Name: "sdn.path_overrides_per_op", Unit: "count"},
	{Name: "relational.spill_partitions_per_op", Unit: "count", Exact: true},
	{Name: "relational.spill_mb_per_op", Unit: "MB", Exact: true},
	{Name: "relational.spill_model_ms_per_op", Unit: "model_ms"},
	{Name: "exec.device_model_ms_per_op", Unit: "model_ms"},
	{Name: "serve.transport_ms_p50", Unit: "ms"},
	{Name: "serve.plancache_hit_ratio", Unit: "ratio", HigherBetter: true},
	{Name: "serve.open_loop_p90_ms", Unit: "ms"},
	{Name: "serve.late_share", Unit: "ratio"},
	{Name: "serve.gen_lag_ms_p95", Unit: "ms"},
	{Name: "stream.ingest_events_s", Unit: "events/s", HigherBetter: true},
	{Name: "stream.window_fresh_p50_ms", Unit: "ms"},
	{Name: "stream.window_fresh_p95_ms", Unit: "ms"},
	{Name: "stream.windows_emitted", Unit: "count", Exact: true},
	{Name: "stream.late", Unit: "count", Exact: true},
	{Name: "stream.dropped", Unit: "count", Exact: true},
	{Name: "trace.overhead_share", Unit: "ratio"},

	// Probes.
	{Name: "kernels.filter_mrows_s", Unit: "Mrows/s", HigherBetter: true},
	{Name: "kernels.gather_mrows_s", Unit: "Mrows/s", HigherBetter: true},
	{Name: "kernels.radix_sort_mkeys_s", Unit: "Mkeys/s", HigherBetter: true},
	{Name: "kernels.sort_pairs_mkeys_s", Unit: "Mkeys/s", HigherBetter: true},
	{Name: "relational.scan_filter_ms", Unit: "ms"},
	{Name: "relational.hash_join_ms", Unit: "ms"},
	{Name: "relational.group_agg_ms", Unit: "ms"},
	{Name: "relational.sort_ms", Unit: "ms"},
	{Name: "relational.rows_materialize_ms", Unit: "ms"},
	{Name: "relational.rows_materialize_mb", Unit: "MB"},
	{Name: "relational.columnar_build_ms", Unit: "ms"},
	{Name: "relational.grace_join_ms", Unit: "ms"},
	{Name: "relational.spill_agg_ms", Unit: "ms"},
	{Name: "relational.external_sort_ms", Unit: "ms"},
	{Name: "sql.parse_us", Unit: "us"},
	{Name: "sql.plan_us", Unit: "us"},
	{Name: "sql.exec_self_ms.scan", Unit: "ms"},
	{Name: "sql.exec_self_ms.join", Unit: "ms"},
	{Name: "sql.exec_self_ms.groupby", Unit: "ms"},
	{Name: "sql.exec_self_ms.topk", Unit: "ms"},
	{Name: "sql.shard_warm_ms", Unit: "ms"},
	{Name: "dist.shard_relation_ms", Unit: "ms"},
	{Name: "dist.run_fragments_ms", Unit: "ms"},
	{Name: "dist.merge_by_seq_ms", Unit: "ms"},
	{Name: "dist.repartition_ms", Unit: "ms"},
	{Name: "dist.broadcast_ms", Unit: "ms"},
	{Name: "dist.repartition_chunks_ms", Unit: "ms"},
	{Name: "dist.gather_chunks_ms", Unit: "ms"},
	{Name: "dist.partial_aggs_ms", Unit: "ms"},
	{Name: "dist.phase_host_us", Unit: "us"},
	{Name: "dist.chunk_consume_host_over_model", Unit: "ratio"},
	{Name: "twoclock.join_host_ms.bulk", Unit: "ms"},
	{Name: "twoclock.join_host_ms.chunk1024", Unit: "ms"},
	{Name: "twoclock.join_host_ms.chunk128", Unit: "ms"},
	{Name: "twoclock.join_model_ms.bulk", Unit: "model_ms", Exact: true},
	{Name: "twoclock.join_model_ms.chunk1024", Unit: "model_ms", Exact: true},
	{Name: "twoclock.join_model_ms.chunk128", Unit: "model_ms", Exact: true},
	{Name: "twoclock.clocks_disagree", Unit: "bool"},
	{Name: "netsim.round_host_us", Unit: "us"},
	{Name: "netsim.flows_per_host_s", Unit: "1/s", HigherBetter: true},
	{Name: "lifecycle.guard_overhead_ms", Unit: "ms"},
	{Name: "exec.placement_overhead_ms", Unit: "ms"},
	{Name: "serve.handler_self_ms", Unit: "ms"},
	{Name: "serve.wire_from_result_ms", Unit: "ms"},
	{Name: "serve.json_encode_ms", Unit: "ms"},
	{Name: "serve.response_kb", Unit: "KB"},
	{Name: "serve.ingest_decode_us_per_batch", Unit: "us"},
	{Name: "stream.append_rows_us_per_batch", Unit: "us"},
	{Name: "stream.windower_events_s", Unit: "events/s", HigherBetter: true},
	{Name: "stream.read_after_append_over_quiescent", Unit: "ratio"},
}

// Column positions in the demo star schema.
const (
	cOrderID, cCustomerID, cQuantity, cPrice, cDiscount, cYear = 0, 1, 4, 5, 6, 7
	cCustID, cSegment                                          = 0, 2
)

// prober times calls into the layers' public functions, one span per
// call.
type prober struct {
	rc    runCfg
	res   *runResult
	iters int
	op    int
	ctx   context.Context

	sales, customers *relational.Relation
	workers          int
}

// timeMS calls fn n times and returns each call's duration in ms. Every
// call is a span named name under parent.
func (p *prober) timeMS(name string, parent, n int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		p.op++
		sp := p.rc.tr.begin(name, p.op, parent)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		p.rc.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, ms(d))
	}
	return out, nil
}

// med returns the median duration of repeated calls: three at least,
// then up to iters for as long as the probe has used under a quarter
// second, so that cheap probes get the full count and a traced run
// still ends in seconds.
func (p *prober) med(name string, fn func() error) (float64, error) {
	var xs []float64
	spent := 0.0
	for len(xs) < 3 || (len(xs) < p.iters && spent < 250) {
		x, err := p.timeMS(name, -1, 1, fn)
		if err != nil {
			return 0, err
		}
		xs = append(xs, x...)
		spent += x[0]
	}
	return median(xs), nil
}

// runProbes runs every layer probe and stores the per-layer metrics on
// res. The probes are the same whatever the workload: they rebuild the
// demo tables in-process at ProbeRows.
func runProbes(rc runCfg, res *runResult) error {
	p := &prober{
		rc: rc, res: res, iters: rc.Scale.ProbeIters, op: 1 << 28, ctx: context.Background(),
		sales:     sql.SalesRelation(rc.Seed, rc.Scale.ProbeRows, rc.Scale.Customers),
		customers: sql.CustomersRelation(rc.Seed+1, rc.Scale.Customers),
		workers:   runtime.NumCPU(),
	}
	for _, group := range []func() error{
		p.kernels, p.relational, p.sql, p.dist, p.netsim, p.engines, p.serve, p.stream,
	} {
		if err := group(); err != nil {
			return err
		}
		// Collect a finished group's tables before the next builds its own.
		runtime.GC()
	}
	return nil
}

// kernels calls the scan and sort kernels directly on the sales column
// vectors.
func (p *prober) kernels() error {
	cols := p.sales.Columnar()
	year, qty, oid, price := cols[cYear].Ints, cols[cQuantity].Ints, cols[cOrderID].Ints, cols[cPrice].Floats
	n := float64(len(year))
	var sel []int32
	t, err := p.med("kernels.filter", func() error {
		sel = kernels.RefineRangeIncl(qty, kernels.FilterRangeIncl(year, 2015, math.MaxInt64), math.MinInt64, 4)
		return nil
	})
	if err != nil {
		return err
	}
	p.res.set("kernels.filter_mrows_s", n/1e6/(t/1e3))
	t, _ = p.med("kernels.gather", func() error {
		kernels.Gather(oid, sel)
		kernels.GatherFloat64(price, sel)
		return nil
	})
	p.res.set("kernels.gather_mrows_s", float64(len(sel))/1e6/(t/1e3))

	// Sort keys: the order-preserving bit pattern of the (positive)
	// prices, as the sort operator extracts them.
	keys := make([]uint64, len(price))
	buf := make([]uint64, len(price))
	vals := make([]int64, len(price))
	for i, f := range price {
		keys[i] = math.Float64bits(f)
	}
	var radix, pairs []float64
	for i := 0; i < p.iters; i++ {
		copy(buf, keys)
		xs, _ := p.timeMS("kernels.radix_sort", -1, 1, func() error { kernels.RadixSortUint64(buf); return nil })
		radix = append(radix, xs...)
		copy(buf, keys)
		copy(vals, oid)
		xs, _ = p.timeMS("kernels.sort_pairs", -1, 1, func() error { kernels.SortPairsByKey(buf, vals); return nil })
		pairs = append(pairs, xs...)
	}
	p.res.set("kernels.radix_sort_mkeys_s", n/1e6/(median(radix)/1e3))
	p.res.set("kernels.sort_pairs_mkeys_s", n/1e6/(median(pairs)/1e3))
	return nil
}

// pick builds a pass-through projection of the given columns.
func pick(child relational.BatchOp, cols ...int) relational.BatchOp {
	cs := child.Schema()
	schema := make(relational.Schema, len(cols))
	exprs := make([]relational.ProjExpr, len(cols))
	for i, c := range cols {
		schema[i] = cs[c]
		exprs[i] = relational.Pick(c)
	}
	op, err := relational.NewBatchProject(child, schema, exprs)
	if err != nil {
		panic(err) // column indices are constants of this file
	}
	return op
}

func atLeast(col int, lo int64) relational.ColRange {
	return relational.ColRange{Col: col, Lo: lo, HasLo: true}
}

func atMost(col int, hi int64) relational.ColRange {
	return relational.ColRange{Col: col, Hi: hi, HasHi: true}
}

// classTree hand-builds the batch operator tree of a statement class
// over the given relations, the way the planner lowers it: prune, push
// the filter down, then the class's pipeline breaker. budget, when
// non-nil, makes the breakers spill.
func classTree(class string, sales, customers *relational.Relation, workers int, budget *relational.MemoryBudget) (relational.BatchOp, error) {
	scan := relational.NewBatchScan(sales)
	switch class {
	case "scan":
		pruned := pick(scan, cOrderID, cQuantity, cPrice, cYear)
		return pick(relational.NewBatchFilter(pruned, []relational.ColRange{atLeast(3, 2015), atMost(1, 4)}, nil), 0, 2), nil
	case "join":
		probe := relational.NewBatchFilter(pick(scan, cCustomerID, cPrice, cDiscount, cYear), []relational.ColRange{atLeast(3, 2012)}, nil)
		build := pick(relational.NewBatchScan(customers), cCustID, cSegment)
		join, err := relational.NewBatchHashJoin(build, probe, 0, 0, workers)
		if err != nil {
			return nil, err
		}
		// Join output: customer_id, segment, customer_id, price, discount, year.
		net := relational.Expr(func(r relational.Row) (relational.Value, error) {
			return relational.FloatV(r[3].F * (1 - r[4].F)), nil
		})
		pre, err := relational.NewBatchProject(join,
			relational.Schema{{Name: "segment", Type: relational.String}, {Name: "net", Type: relational.Float}},
			[]relational.ProjExpr{relational.Pick(1), net})
		if err != nil {
			return nil, err
		}
		agg, err := relational.NewBatchGroupAgg(pre, []int{0}, []relational.AggSpec{
			{Fn: relational.CountAgg, Col: -1, Name: "n"}, {Fn: relational.SumAgg, Col: 1, Name: "net"}}, workers)
		if err != nil {
			return nil, err
		}
		srt, err := relational.NewBatchSort(agg, []relational.SortKey{{Col: 2, Desc: true}}, workers)
		if err != nil {
			return nil, err
		}
		if budget != nil {
			join.SetBudget(budget)
			agg.SetBudget(budget)
			srt.SetBudget(budget)
		}
		return srt, nil
	case "groupby":
		agg, err := relational.NewBatchGroupAgg(pick(scan, cCustomerID, cPrice), []int{0}, []relational.AggSpec{
			{Fn: relational.CountAgg, Col: -1, Name: "n"}, {Fn: relational.SumAgg, Col: 1, Name: "revenue"}}, workers)
		if err != nil {
			return nil, err
		}
		srt, err := relational.NewBatchSort(agg, []relational.SortKey{{Col: 2, Desc: true}, {Col: 0}}, workers)
		if err != nil {
			return nil, err
		}
		if budget != nil {
			agg.SetBudget(budget)
			srt.SetBudget(budget)
		}
		return relational.NewBatchLimit(srt, 10), nil
	case "topk":
		filtered := relational.NewBatchFilter(pick(scan, cOrderID, cQuantity, cPrice, cYear), []relational.ColRange{atLeast(3, 2016)}, nil)
		srt, err := relational.NewBatchSort(filtered, []relational.SortKey{{Col: 2, Desc: true}, {Col: 0}}, workers)
		if err != nil {
			return nil, err
		}
		if budget != nil {
			srt.SetBudget(budget)
		}
		return pick(relational.NewBatchLimit(srt, 100), 0, 2, 1), nil
	}
	return nil, fmt.Errorf("no tree for class %q", class)
}

// drain pulls a tree to the end through the morsel dispatcher without
// turning batches into rows.
func drain(tree relational.BatchOp, workers int) error {
	op := relational.NewExchange(tree, workers)
	for {
		b, err := op.NextBatch()
		if err != nil || b == nil {
			return err
		}
	}
}

// newBudget is a 2% memory budget on the ssd tier: the same share
// olap_dist_allon runs under.
func (p *prober) newBudget() (*relational.MemoryBudget, error) {
	dev, err := memtier.NewSpillDevice("ssd")
	if err != nil {
		return nil, err
	}
	return relational.NewMemoryBudget(int64(0.02*p.sales.EncodedBytes()), dev), nil
}

// treeMS times a class's hand-built tree, drained batch by batch.
func (p *prober) treeMS(span, class string, budgeted bool) (float64, error) {
	return p.med(span, func() error {
		var budget *relational.MemoryBudget
		if budgeted {
			var err error
			if budget, err = p.newBudget(); err != nil {
				return err
			}
		}
		tree, err := classTree(class, p.sales, p.customers, p.workers, budget)
		if err != nil {
			return err
		}
		return drain(tree, p.workers)
	})
}

// treeMetric names the relational probe of each class.
var treeMetric = map[string]string{
	"scan": "relational.scan_filter_ms", "join": "relational.hash_join_ms",
	"groupby": "relational.group_agg_ms", "topk": "relational.sort_ms",
}

// relational drains hand-built operator trees of the four classes,
// in memory and under a 2% budget, and times the two conversions
// between rows and columns.
func (p *prober) relational() error {
	p.sales.Columnar()
	p.customers.Columnar()
	for _, c := range classes {
		t, err := p.treeMS("relational.tree."+c.Name, c.Name, false)
		if err != nil {
			return err
		}
		p.res.set(treeMetric[c.Name], t)
	}
	for _, b := range []struct{ class, metric string }{
		{"join", "relational.grace_join_ms"}, {"groupby", "relational.spill_agg_ms"}, {"topk", "relational.external_sort_ms"},
	} {
		t, err := p.treeMS("relational.tree_budgeted."+b.class, b.class, true)
		if err != nil {
			return err
		}
		p.res.set(b.metric, t)
	}

	// Batch -> []Row: collecting the scan result as rows, over draining
	// the same tree as batches.
	collect := func() error {
		tree, err := classTree("scan", p.sales, p.customers, p.workers, nil)
		if err != nil {
			return err
		}
		_, err = relational.Collect(relational.RowsOf(relational.NewExchange(tree, p.workers)), "rows")
		return err
	}
	drainScan := func() error {
		tree, err := classTree("scan", p.sales, p.customers, p.workers, nil)
		if err != nil {
			return err
		}
		return drain(tree, p.workers)
	}
	a0 := heapAllocBytes()
	tc, err := p.med("relational.collect_rows", collect)
	if err != nil {
		return err
	}
	a1 := heapAllocBytes()
	td, err := p.med("relational.drain_batches", drainScan)
	if err != nil {
		return err
	}
	a2 := heapAllocBytes()
	p.res.set("relational.rows_materialize_ms", tc-td)
	p.res.set("relational.rows_materialize_mb", (float64(a1-a0)-float64(a2-a1))/float64(p.iters)/(1<<20))

	// []Row -> columns: the image a fresh relation header must build.
	t, err := p.med("relational.columnar_build", func() error {
		cold := &relational.Relation{Name: p.sales.Name, Schema: p.sales.Schema, Rows: p.sales.Rows}
		cold.Columnar()
		return nil
	})
	p.res.set("relational.columnar_build_ms", t)
	return err
}

// sql times parsing and planning, and what Stmt.Exec adds on top of
// the hand-built tree of each class on a single-node engine.
func (p *prober) sql() error {
	eng, err := sql.NewEngine(sql.DefaultConfig())
	if err != nil {
		return err
	}
	eng.Register(p.sales)
	eng.Register(p.customers)
	sess := eng.Session()

	// Parsing and planning take microseconds: time all four classes 25
	// times per call.
	const reps = 25
	perStmt := float64(reps * len(classes))
	parse, err := p.med("sql.parse", func() error {
		for i := 0; i < reps; i++ {
			for _, c := range classes {
				if _, err := sql.Parse(c.SQL); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	prepare, err := p.med("sql.prepare", func() error {
		for i := 0; i < reps; i++ {
			for _, c := range classes {
				if _, err := sess.Prepare(c.SQL); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.set("sql.parse_us", parse*1e3/perStmt)
	p.res.set("sql.plan_us", (prepare-parse)*1e3/perStmt)

	for _, c := range classes {
		st, err := sess.Prepare(c.SQL)
		if err != nil {
			return err
		}
		exec, err := p.med("sql.exec."+c.Name, func() error {
			_, err := st.Exec(p.ctx)
			return err
		})
		if err != nil {
			return err
		}
		p.res.set("sql.exec_self_ms."+c.Name, exec-p.res.Metrics[treeMetric[c.Name]])
	}
	return nil
}
