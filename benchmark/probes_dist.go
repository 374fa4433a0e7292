package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/relational"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/sql"
	"repro/internal/stream"
)

const probeShards = 4

// allToAll is the fixed 12-flow exchange between the four workers the
// fabric probes submit.
func allToAll(bytes float64) []dist.Transfer {
	var ts []dist.Transfer
	for s := 0; s < probeShards; s++ {
		for d := 0; d < probeShards; d++ {
			if s != d {
				ts = append(ts, dist.Transfer{Src: s, Dst: d, Bytes: bytes})
			}
		}
	}
	return ts
}

// dist calls the movement primitives on the four range shards of the
// demo tables: the functions a distributed plan strings together
// between fragments.
func (p *prober) dist() error {
	var st, ct *dist.ShardedTable
	t, _ := p.med("dist.shard_relation", func() error {
		st = dist.ShardRelation(p.sales, probeShards, dist.RangeShard, -1)
		return nil
	})
	p.res.set("dist.shard_relation_ms", t)
	ct = dist.ShardRelation(p.customers, probeShards, dist.RangeShard, -1)
	seq := st.SeqCol()
	for _, sh := range append(append([]*relational.Relation{}, st.Shards...), ct.Shards...) {
		sh.Columnar()
	}

	// The scan class's per-shard fragments: filter, project, keep #seq.
	scanFrags := func() []relational.BatchOp {
		frags := make([]relational.BatchOp, probeShards)
		for i, sh := range st.Shards {
			pruned := pick(relational.NewBatchScan(sh), cOrderID, cQuantity, cPrice, cYear, seq)
			frags[i] = pick(relational.NewBatchFilter(pruned, []relational.ColRange{atLeast(3, 2015), atMost(1, 4)}, nil), 0, 2, 4)
		}
		return frags
	}
	var scanOut []*relational.Relation
	t, err := p.med("dist.run_fragments", func() error {
		var err error
		scanOut, err = dist.RunFragments("frag", scanFrags(), p.workers)
		return err
	})
	if err != nil {
		return err
	}
	p.res.set("dist.run_fragments_ms", t)
	t, _ = p.med("dist.merge_by_seq", func() error {
		dist.MergeBySeq("gathered", scanOut, 2, true)
		return nil
	})
	p.res.set("dist.merge_by_seq_ms", t)
	t, _ = p.med("dist.gather_chunks", func() error {
		_, bounds := dist.GatherChunks(scanOut, 2, 1024)
		merged := relational.NewRelation("gathered", scanOut[0].Schema[:2])
		merger := dist.NewSeqMerger(scanOut, 2)
		for _, upto := range bounds {
			merger.Take(upto, func(shard, row int) {
				merged.Rows = append(merged.Rows, scanOut[shard].Rows[row][:2])
			})
		}
		return nil
	})
	p.res.set("dist.gather_chunks_ms", t)

	// The join class's two sides as they stand before movement: the
	// customers shards, and the sales shards filtered and pruned.
	joinFrags := make([]relational.BatchOp, probeShards)
	for i, sh := range st.Shards {
		joinFrags[i] = relational.NewBatchFilter(pick(relational.NewBatchScan(sh), cCustomerID, cPrice, cDiscount, cYear, seq),
			[]relational.ColRange{atLeast(3, 2012)}, nil)
	}
	probeSide, err := dist.RunFragments("frag", joinFrags, p.workers)
	if err != nil {
		return err
	}
	custSeq := ct.SeqCol()
	t, _ = p.med("dist.repartition", func() error {
		dist.Repartition(ct.Shards, cCustID, custSeq)
		dist.Repartition(probeSide, 0, 4)
		return nil
	})
	p.res.set("dist.repartition_ms", t)
	t, _ = p.med("dist.repartition_chunks", func() error {
		dist.RepartitionChunks(ct.Shards, cCustID, custSeq, 1024)
		dist.RepartitionChunks(probeSide, 0, 4, 1024)
		return nil
	})
	p.res.set("dist.repartition_chunks_ms", t)
	t, _ = p.med("dist.broadcast", func() error {
		dist.Broadcast(ct.Shards, custSeq, true)
		return nil
	})
	p.res.set("dist.broadcast_ms", t)

	// The groupby class's per-shard partial aggregation.
	aggs := []relational.AggSpec{{Fn: relational.CountAgg, Col: -1, Name: "n"}, {Fn: relational.SumAgg, Col: 1, Name: "revenue"}}
	t, err = p.med("dist.partial_aggs", func() error {
		frags := make([]relational.BatchOp, probeShards)
		for i, sh := range st.Shards {
			frags[i] = pick(relational.NewBatchScan(sh), cCustomerID, cPrice, seq)
		}
		_, err := dist.RunPartialAggs(frags, []int{0}, aggs, 2, p.workers, nil, nil)
		return err
	})
	if err != nil {
		return err
	}
	p.res.set("dist.partial_aggs_ms", t)

	// Host time of one bulk phase's bookkeeping on an idle fabric.
	cluster, err := dist.NewCluster("leafspine", probeShards)
	if err != nil {
		return err
	}
	fab := dist.NewFabric(cluster)
	phase, err := p.timeMS("dist.run_phase", -1, 10*p.iters, func() error {
		qr := fab.NewQuery()
		defer qr.Close()
		return qr.RunPhase("probe", allToAll(1<<20))
	})
	if err != nil {
		return err
	}
	p.res.set("dist.phase_host_us", median(phase)*1e3)

	// The two clocks on one pipelined consume step: filling the join's
	// shared hash table from broadcast chunks, host time over the
	// modeled ChunkComputeBytesPerSec time of the same chunks.
	var lines []string
	for _, chunkRows := range []int{math.MaxInt32, 1024, 128} {
		host, model := 0.0, 0.0
		_, err := p.timeMS(fmt.Sprintf("dist.consume_chunks.%d", chunkRows), -1, p.iters, func() error {
			merged, chunks, bounds := dist.BroadcastChunks(ct.Shards, custSeq, true, chunkRows)
			pre, err := relational.NewHashBuild(merged.Schema, cCustID)
			if err != nil {
				return err
			}
			qr := fab.NewQuery()
			defer qr.Close()
			prev := 0
			err = qr.RunPipelined("broadcast", chunks, "", 0, func(k int) error {
				t0 := time.Now()
				pre.Append(merged.Rows[prev:bounds[k]])
				prev = bounds[k]
				host += time.Since(t0).Seconds()
				return nil
			})
			model += qr.Finish().ComputeSeconds
			return err
		})
		if err != nil {
			return err
		}
		label := fmt.Sprintf("chunk %d", chunkRows)
		if chunkRows == math.MaxInt32 {
			label = "bulk"
		}
		lines = append(lines, fmt.Sprintf("%s %.0fx", label, host/model))
		if chunkRows == 1024 {
			p.res.set("dist.chunk_consume_host_over_model", host/model)
		}
	}
	p.res.Notes = append(p.res.Notes, "consume step, host time over modeled 4 GiB/s compute: "+strings.Join(lines, ", "))
	return nil
}

// netsim submits the fixed all-to-all straight to the admission layer
// of an idle leaf-spine: the simulator's own host cost per round.
func (p *prober) netsim() error {
	cluster, err := dist.NewCluster("leafspine", probeShards)
	if err != nil {
		return err
	}
	adm := netsim.NewAdmission(netsim.NewSimulator(cluster.Net))
	var reqs []netsim.FlowReq
	for _, t := range allToAll(1 << 20) {
		reqs = append(reqs, netsim.FlowReq{Src: cluster.Workers[t.Src], Dst: cluster.Workers[t.Dst], Bytes: t.Bytes})
	}
	rounds, err := p.timeMS("netsim.round", -1, 10*p.iters, func() error {
		party := adm.Join(nil)
		defer party.Leave()
		_, _, err := party.Submit(reqs)
		return err
	})
	if err != nil {
		return err
	}
	p.res.set("netsim.round_host_us", median(rounds)*1e3)
	p.res.set("netsim.flows_per_host_s", float64(len(reqs))/(median(rounds)/1e3))
	return nil
}

// distEngine builds a four-shard engine over the probe tables.
func (p *prober) distEngine(mutate func(*sql.Config)) (*sql.Engine, error) {
	cfg := olapConfig(wOlapDist)
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	eng.Register(p.sales)
	eng.Register(p.customers)
	return eng, nil
}

// execMS prepares a class on a session, warms it and returns the median
// Exec time with the last result.
func (p *prober) execMS(span string, sess *sql.Session, class stmtClass) (float64, *sql.Result, error) {
	st, err := sess.Prepare(class.SQL)
	if err != nil {
		return 0, nil, err
	}
	if _, err := st.Exec(p.ctx); err != nil {
		return 0, nil, err
	}
	var last *sql.Result
	t, err := p.med(span, func() error {
		var err error
		last, err = st.Exec(p.ctx)
		return err
	})
	return t, last, err
}

// engines runs whole statements on distributed engines that differ in
// one knob, so the difference is that knob's host cost; and puts the
// two clocks side by side for the join at three chunk sizes.
func (p *prober) engines() error {
	join, groupby, scan := classes[1], classes[2], classes[0]
	eng, err := p.distEngine(nil)
	if err != nil {
		return err
	}

	// First distributed execution after a Register pays the sharding and
	// the shards' columnar images; steady state does not.
	sess := eng.Session()
	st, err := sess.Prepare(scan.SQL)
	if err != nil {
		return err
	}
	var cold, warm []float64
	for i := 0; i < p.iters; i++ {
		eng.Register(p.sales)
		for _, into := range []*[]float64{&cold, &warm} {
			xs, err := p.timeMS("sql.exec_after_register", -1, 1, func() error {
				_, err := st.Exec(p.ctx)
				return err
			})
			if err != nil {
				return err
			}
			*into = append(*into, xs...)
		}
	}
	p.res.set("sql.shard_warm_ms", median(cold)-median(warm))

	// Two clocks: the same join, bulk and at two chunk sizes.
	type clocks struct {
		label       string
		host, model float64
	}
	var runs []clocks
	for _, c := range []struct {
		label string
		rows  int
	}{{"bulk", 0}, {"chunk1024", 1024}, {"chunk128", 128}} {
		s := eng.Session()
		s.PipelineChunkRows = c.rows
		host, res, err := p.execMS("sql.exec.join."+c.label, s, join)
		if err != nil {
			return err
		}
		model := res.Net.WallSeconds() * 1e3
		runs = append(runs, clocks{c.label, host, model})
		p.res.set("twoclock.join_host_ms."+c.label, host)
		p.res.set("twoclock.join_model_ms."+c.label, model)
	}
	byHost := append([]clocks{}, runs...)
	byModel := append([]clocks{}, runs...)
	sort.SliceStable(byHost, func(i, j int) bool { return byHost[i].host < byHost[j].host })
	sort.SliceStable(byModel, func(i, j int) bool { return byModel[i].model < byModel[j].model })
	disagree := false
	line := "two-clock join:"
	for i, r := range runs {
		line += fmt.Sprintf(" %s host %.1f ms / modeled %.3f ms;", r.label, r.host, r.model)
		if byHost[i].label != byModel[i].label {
			disagree = true
		}
	}
	if disagree {
		p.res.set("twoclock.clocks_disagree", 1)
	}
	p.res.Notes = append(p.res.Notes, fmt.Sprintf("%s clocks_disagree=%v (host order %s<%s<%s, modeled order %s<%s<%s)", line, disagree,
		byHost[0].label, byHost[1].label, byHost[2].label, byModel[0].label, byModel[1].label, byModel[2].label))
	joinBulk := runs[0].host
	groupbyPlain, _, err := p.execMS("sql.exec.groupby.plain", eng.Session(), groupby)
	if err != nil {
		return err
	}
	eng = nil
	runtime.GC()

	// Replication 2 with no faults routes every phase through the
	// lifecycle guard.
	guarded, err := p.distEngine(func(c *sql.Config) { c.Replication = 2 })
	if err != nil {
		return err
	}
	joinGuarded, _, err := p.execMS("sql.exec.join.replicated", guarded.Session(), join)
	if err != nil {
		return err
	}
	p.res.set("lifecycle.guard_overhead_ms", joinGuarded-joinBulk)
	guarded = nil
	runtime.GC()

	// A device set with cost-based placement wraps every batch operator
	// in a dispatcher.
	placed, err := p.distEngine(func(c *sql.Config) { c.Devices, c.Placement = []string{"cpu", "gpu", "fpga"}, "auto" })
	if err != nil {
		return err
	}
	groupbyPlaced, _, err := p.execMS("sql.exec.groupby.placed", placed.Session(), groupby)
	if err != nil {
		return err
	}
	p.res.set("exec.placement_overhead_ms", groupbyPlaced-groupbyPlain)
	return nil
}

// handle drives a request through the server's handler in-process.
func handle(h http.Handler, key, path string, body []byte) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+key)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec, nil
}

// eventRows converts generated wire events to engine rows.
func eventRows(batch [][]any) []relational.Row {
	rows := make([]relational.Row, len(batch))
	for i, e := range batch {
		rows[i] = relational.Row{relational.StringV(e[0].(string)), relational.IntV(e[1].(int64)), relational.IntV(e[2].(int64))}
	}
	return rows
}

func newEventsRelation(name string) *relational.Relation {
	return relational.NewRelation(name, relational.Schema{
		{Name: "k", Type: relational.String}, {Name: "t", Type: relational.Int}, {Name: "v", Type: relational.Int}})
}

// serveEngine is the engine the daemon workloads front: four shards,
// serve-sized demo tables.
func (p *prober) serveEngine() (*sql.Engine, error) {
	eng, err := sql.NewEngine(olapConfig(wOlapDist))
	if err != nil {
		return nil, err
	}
	sql.RegisterDemo(eng, p.rc.Seed, p.rc.Scale.ServeRows, p.rc.Scale.Customers)
	return eng, nil
}

// serve drives the scan class (the wide response) through the server's
// handler in-process, then replays the handler's stages one by one; the
// handler's self time is what the stages do not cover. It also times an
// ingest request against the bare AppendRows it wraps.
func (p *prober) serve() error {
	eng, err := p.serveEngine()
	if err != nil {
		return err
	}
	tenants := serve.DefaultTenants()
	srv := serve.New(eng, tenants, serve.Options{})
	h := srv.Handler()
	scan := classes[0]
	body, err := json.Marshal(serve.QueryRequest{SQL: scan.SQL, Prepare: true})
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if _, err := handle(h, tenantKeys[0], "/v1/sql", body); err != nil {
			return err
		}
	}
	total, err := p.med("serve.handler", func() error {
		_, err := handle(h, tenantKeys[0], "/v1/sql", body)
		return err
	})
	if err != nil {
		return err
	}

	// Staged replay, in the handler's order.
	tenant, _ := tenants.ByKey(tenantKeys[0])
	cache := serve.NewPlanCache(serve.DefaultCacheCap)
	key := cache.Key(tenant, scan.SQL)
	epoch := eng.CatalogEpoch()
	prepared, err := tenant.Session(eng).Prepare(scan.SQL)
	if err != nil {
		return err
	}
	cache.Put(key, prepared, epoch)
	stages := map[string][]float64{}
	respBytes := 0
	for i := 0; i < p.iters; i++ {
		p.op++
		parent := p.rc.tr.begin("serve.replay", p.op, -1)
		var stmt *sql.Stmt
		var res *sql.Result
		var wres *wire.Result
		for _, stage := range []struct {
			name string
			fn   func() error
		}{
			{"serve.plancache_get", func() error {
				var ok bool
				if stmt, ok = cache.Get(key, epoch); !ok {
					return fmt.Errorf("plan cache miss on a primed key")
				}
				return nil
			}},
			{"sql.exec", func() error {
				var err error
				res, err = stmt.Bind(tenant.Session(eng)).Exec(p.ctx)
				return err
			}},
			{"serve.wire_from_result", func() error { wres = wire.FromResult(res); return nil }},
			{"serve.json_encode", func() error {
				out, err := json.Marshal(serve.QueryResponse{Tenant: tenant.Name, CacheHit: true, CatalogEpoch: epoch, Result: wres})
				respBytes = len(out)
				return err
			}},
		} {
			xs, err := p.timeMS(stage.name, parent, 1, stage.fn)
			if err != nil {
				return err
			}
			stages[stage.name] = append(stages[stage.name], xs...)
		}
		p.rc.tr.end(parent)
	}
	covered := 0.0
	for _, xs := range stages {
		covered += median(xs)
	}
	p.res.set("serve.handler_self_ms", total-covered)
	p.res.set("serve.wire_from_result_ms", median(stages["serve.wire_from_result"]))
	p.res.set("serve.json_encode_ms", median(stages["serve.json_encode"]))
	p.res.set("serve.response_kb", float64(respBytes)/1024)

	// Ingest: the request (JSON decode, cell typing, ack encode) against
	// the bare append of the same batch.
	eng.Register(newEventsRelation("events"))
	eng.Register(newEventsRelation("events_direct"))
	gen := newEventGen(p.rc.Seed, p.rc.Scale.Keys)
	var viaHTTP, direct []float64
	for i := 0; i < 4*p.iters; i++ {
		batch := gen.batch(p.rc.Scale.BatchEvents)
		body, err := json.Marshal(serve.StreamRequest{Table: "events", Rows: batch})
		if err != nil {
			return err
		}
		xs, err := p.timeMS("serve.ingest", -1, 1, func() error {
			_, err := handle(h, tenantKeys[0], "/v1/stream", body)
			return err
		})
		if err != nil {
			return err
		}
		viaHTTP = append(viaHTTP, xs...)
		rows := eventRows(batch)
		xs, err = p.timeMS("stream.append_rows", -1, 1, func() error {
			_, err := eng.AppendRows("events_direct", rows)
			return err
		})
		if err != nil {
			return err
		}
		direct = append(direct, xs...)
	}
	p.res.set("serve.ingest_decode_us_per_batch", (median(viaHTTP)-median(direct))*1e3)
	p.res.set("stream.append_rows_us_per_batch", median(direct)*1e3)
	return nil
}

// stream feeds the windower in-process (no HTTP), and compares a read
// right after an append with the same read on an untouched table.
func (p *prober) stream() error {
	eng, err := sql.NewEngine(olapConfig(wOlapDist))
	if err != nil {
		return err
	}
	sc := p.rc.Scale
	batchesPerRun := 100
	var rates []float64
	for i := 0; i < min(p.iters, 3); i++ {
		eng.Register(newEventsRelation("events"))
		sess := eng.Session()
		sub, err := sess.Subscribe(p.ctx, streamWindowSQL, stream.WindowSpec{TimeCol: "t", Size: 1000, Slide: 250})
		if err != nil {
			return err
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range sub.Out() {
			}
		}()
		src, err := sess.StreamSource("events")
		if err != nil {
			return err
		}
		gen := newEventGen(p.rc.Seed, sc.Keys)
		batches := make([][]relational.Row, batchesPerRun)
		for b := range batches {
			batches[b] = eventRows(gen.batch(sc.BatchEvents))
		}
		xs, err := p.timeMS("stream.windower", -1, 1, func() error {
			for _, rows := range batches {
				if err := src.Append(rows...); err != nil {
					return err
				}
			}
			src.Close()
			<-sub.Done()
			<-drained
			return sub.Err()
		})
		if err != nil {
			return err
		}
		rates = append(rates, float64(batchesPerRun*sc.BatchEvents)/(xs[0]/1e3))
	}
	p.res.set("stream.windower_events_s", median(rates))

	// The last run left a closed events table of batchesPerRun batches;
	// reads need an open one to append to.
	eng.Register(newEventsRelation("events"))
	gen := newEventGen(p.rc.Seed, sc.Keys)
	for b := 0; b < batchesPerRun; b++ {
		if _, err := eng.AppendRows("events", eventRows(gen.batch(sc.BatchEvents))); err != nil {
			return err
		}
	}
	st, err := eng.Session().Prepare(streamReadSQL)
	if err != nil {
		return err
	}
	read := func() error { _, err := st.Exec(p.ctx); return err }
	if err := read(); err != nil {
		return err
	}
	var after, quiescent []float64
	for i := 0; i < p.iters; i++ {
		if _, err := eng.AppendRows("events", eventRows(gen.batch(sc.BatchEvents))); err != nil {
			return err
		}
		for _, into := range []struct {
			name string
			xs   *[]float64
		}{{"stream.read_after_append", &after}, {"stream.read_quiescent", &quiescent}} {
			xs, err := p.timeMS(into.name, -1, 1, read)
			if err != nil {
				return err
			}
			*into.xs = append(*into.xs, xs...)
		}
	}
	p.res.set("stream.read_after_append_over_quiescent", median(after)/median(quiescent))
	return nil
}
