package sql

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/lifecycle"
	"repro/internal/netsim"
	"repro/internal/relational"
	"repro/internal/stream"
)

var streamSchema = relational.Schema{
	{Name: "k", Type: relational.String},
	{Name: "t", Type: relational.Int},
	{Name: "v", Type: relational.Int},
}

func streamEngine(t *testing.T, mut func(*Config)) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Register(relational.NewRelation("events", streamSchema))
	return eng
}

func sev(k string, tm, v int64) relational.Row {
	return relational.Row{relational.StringV(k), relational.IntV(tm), relational.IntV(v)}
}

// streamBatches builds n events in batches of batch rows: event times
// mostly advance (two per tick) with deterministic disorder bounded well
// inside the lateness allowance, so nothing can be dropped.
func streamBatches(n, batch int) [][]relational.Row {
	var out [][]relational.Row
	cur := make([]relational.Row, 0, batch)
	seed := int64(424243)
	for i := 0; i < n; i++ {
		seed = (seed*1103515245 + 12347) % (1 << 31)
		tm := int64(i/2) - seed%3
		if tm < 0 {
			tm = 0
		}
		cur = append(cur, sev(fmt.Sprintf("k%d", seed%20), tm, seed%101))
		if len(cur) == batch {
			out = append(out, cur)
			cur = make([]relational.Row, 0, batch)
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

const contQuery = "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM events GROUP BY k"

// runStream feeds batches through a Source while collecting every window
// a subscription to contQuery emits.
func runStream(t *testing.T, sess *Session, batches [][]relational.Row, spec stream.WindowSpec) ([]stream.Window, stream.Stats) {
	t.Helper()
	src, err := sess.StreamSource("events")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sess.Subscribe(context.Background(), contQuery, spec)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, b := range batches {
			if err := src.Append(b...); err != nil {
				t.Error(err)
				break
			}
		}
		src.Close()
	}()
	var wins []stream.Window
	for w := range sub.Out() {
		wins = append(wins, w)
	}
	<-sub.Done()
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
	return wins, sub.Stats()
}

// TestStreamBatchParity is the subsystem's acceptance contract: after the
// stream closes, every emitted window is row-for-row identical to the
// batch engine's answer to the same query restricted to the window's
// time range over the fully materialized relation — on the serial,
// morsel-parallel and distributed paths, budgeted and not.
func TestStreamBatchParity(t *testing.T) {
	paths := []struct {
		name string
		mut  func(*Config)
	}{
		{"serial", nil},
		{"parallel", func(c *Config) { c.Parallel = true; c.Workers = 4 }},
		{"distributed", func(c *Config) {
			c.Distributed = true
			c.Shards = 4
			c.Topology = "leafspine"
		}},
	}
	for _, p := range paths {
		for _, budget := range []int64{0, 2 << 10} {
			t.Run(fmt.Sprintf("%s/budget=%d", p.name, budget), func(t *testing.T) {
				eng := streamEngine(t, p.mut)
				sess := eng.Session()
				sess.MemoryBudget = budget
				spec := stream.WindowSpec{TimeCol: "t", Size: 16, Slide: 4, Lateness: 3}
				wins, st := runStream(t, sess, streamBatches(2000, 100), spec)
				if len(wins) < 10 {
					t.Fatalf("only %d windows emitted", len(wins))
				}
				if st.Dropped != 0 {
					t.Fatalf("disorder within lateness dropped %d events", st.Dropped)
				}
				if st.Events != 2000 {
					t.Fatalf("accepted %d of 2000 events", st.Events)
				}
				if budget > 0 && (st.Spill == nil || st.Spill.Partitions == 0) {
					t.Fatalf("budgeted subscription never spilled: %+v", st.Spill)
				}
				if budget == 0 && st.Spill != nil {
					t.Fatalf("unbudgeted subscription reported spill: %+v", st.Spill)
				}
				batch := eng.Session()
				for _, w := range wins {
					q := fmt.Sprintf("SELECT k, SUM(v) AS s, COUNT(*) AS n FROM events WHERE t >= %d AND t < %d GROUP BY k", w.Start, w.End)
					res, err := batch.Query(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(w.Rows.RowView(), res.Rows.RowView()) {
						t.Fatalf("window [%d,%d) diverges from batch rerun:\n stream %v\n batch  %v",
							w.Start, w.End, w.Rows.RowView(), res.Rows.RowView())
					}
				}
			})
		}
	}
}

// TestPlanCacheSurvivesAppends is the epoch-semantics regression: an
// append bumps the table's data epoch but NOT the catalog epoch, so a
// prepared statement (and any plan cache keyed on the catalog epoch)
// stays valid and sees the new rows; replacing the table via Register
// still invalidates.
func TestPlanCacheSurvivesAppends(t *testing.T) {
	eng := streamEngine(t, nil)
	sess := eng.Session()
	if _, err := eng.AppendRows("events", []relational.Row{sev("a", 1, 10)}); err != nil {
		t.Fatal(err)
	}
	st, err := sess.Prepare("SELECT k, SUM(v) AS s FROM events GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	cat, data := eng.CatalogEpoch(), eng.DataEpoch("events")
	if _, err := eng.AppendRows("events", []relational.Row{sev("a", 2, 5), sev("b", 3, 7)}); err != nil {
		t.Fatal(err)
	}
	if got := eng.CatalogEpoch(); got != cat {
		t.Fatalf("append bumped the catalog epoch %d -> %d: cached plans would invalidate", cat, got)
	}
	if got := eng.DataEpoch("events"); got != data+1 {
		t.Fatalf("append did not bump the data epoch: %d -> %d", data, got)
	}
	res, err := st.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []relational.Row{
		{relational.StringV("a"), relational.IntV(15)},
		{relational.StringV("b"), relational.IntV(7)},
	}
	if !reflect.DeepEqual(res.Rows.RowView(), want) {
		t.Fatalf("prepared statement missed appended rows: %v", res.Rows.RowView())
	}
	eng.Register(relational.NewRelation("events", streamSchema))
	if got := eng.CatalogEpoch(); got != cat+1 {
		t.Fatalf("Register replace must bump the catalog epoch: %d -> %d", cat, got)
	}
	if eng.DataEpoch("events") != data+2 {
		t.Fatalf("Register replace must bump the data epoch too")
	}
}

// TestAppendVisibleToDistributedQueries: the sharded placement cache
// must refresh after appends (stale shard sets would silently drop the
// new rows).
func TestAppendVisibleToDistributedQueries(t *testing.T) {
	eng := streamEngine(t, func(c *Config) {
		c.Distributed = true
		c.Shards = 4
		c.Topology = "leafspine"
	})
	sess := eng.Session()
	count := func() int64 {
		res, err := sess.Query(context.Background(), "SELECT COUNT(*) AS n FROM events")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows.RowView()[0][0].I
	}
	for _, b := range streamBatches(600, 200) {
		if _, err := eng.AppendRows("events", b); err != nil {
			t.Fatal(err)
		}
	}
	if n := count(); n != 600 {
		t.Fatalf("count after appends: %d", n)
	}
	if _, err := eng.AppendRows("events", []relational.Row{sev("z", 999, 1)}); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 601 {
		t.Fatalf("append after a query is invisible: count %d", n)
	}
}

// TestIngestBilledToIngestClass: distributed appends move bytes on the
// shared fabric under the "ingest" QoS class, visible in the fabric's
// per-class attribution and in the source's acknowledgements.
func TestIngestBilledToIngestClass(t *testing.T) {
	eng := streamEngine(t, func(c *Config) {
		c.Distributed = true
		c.Shards = 4
		c.Topology = "leafspine"
	})
	sess := eng.Session()
	src, err := sess.StreamSource("events")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range streamBatches(400, 100) {
		if err := src.Append(b...); err != nil {
			t.Fatal(err)
		}
	}
	st := src.Stats()
	if st.Batches != 4 || st.Rows != 400 || st.Bytes <= 0 {
		t.Fatalf("ingest stats: %+v", st)
	}
	if st.NetSeconds <= 0 {
		t.Fatalf("distributed ingest modeled no fabric time: %+v", st)
	}
	fab := eng.Fabric().Stats().Admission
	got := fab.ClassBytes[IngestClass]
	if got <= 0 {
		t.Fatalf("no ingest-class bytes on the fabric: %v", fab.ClassBytes)
	}
	if got > st.Bytes {
		t.Fatalf("ingest class billed %.0f bytes, appended only %.0f", got, st.Bytes)
	}
	// Single-node engines bill nothing.
	eng1 := streamEngine(t, nil)
	ing, err := eng1.AppendRows("events", []relational.Row{sev("a", 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if ing.NetSeconds != 0 {
		t.Fatalf("single-node append billed fabric time: %+v", ing)
	}
}

// TestChaosKillMidIngest: killing a worker on a replication-2 cluster
// while a stream is being ingested loses no acknowledged event — the
// count and the windowed results still match a batch rerun.
func TestChaosKillMidIngest(t *testing.T) {
	plan, err := lifecycle.ParsePlan("kill:1@0:0.5", 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := streamEngine(t, func(c *Config) {
		c.Distributed = true
		c.Shards = 4
		c.Topology = "leafspine"
		c.Replication = 2
		c.Faults = plan
	})
	sess := eng.Session()
	spec := stream.WindowSpec{TimeCol: "t", Size: 16, Slide: 8, Lateness: 3}
	wins, st := runStream(t, sess, streamBatches(1000, 50), spec)
	if st.Dropped != 0 || st.Events != 1000 {
		t.Fatalf("stream stats under chaos: %+v", st)
	}
	res, err := sess.Query(context.Background(), "SELECT COUNT(*) AS n FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows.RowView()[0][0].I; n != 1000 {
		t.Fatalf("acknowledged events lost: count %d of 1000", n)
	}
	for _, w := range wins {
		q := fmt.Sprintf("SELECT k, SUM(v) AS s, COUNT(*) AS n FROM events WHERE t >= %d AND t < %d GROUP BY k", w.Start, w.End)
		res, err := sess.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w.Rows.RowView(), res.Rows.RowView()) {
			t.Fatalf("window [%d,%d) diverges under chaos", w.Start, w.End)
		}
	}
}

// ingestProbe is a passive fabric controller: it overrides nothing and
// records the ingest-class bytes each link was asked to carry.
type ingestProbe struct{ linkBytes map[int]float64 }

func (p *ingestProbe) Admit(st *netsim.RoundState) []netsim.Decision {
	for _, f := range st.Pending {
		if f.Class == IngestClass {
			for _, l := range f.Path.LinkIDs {
				p.linkBytes[l] += f.Bytes
			}
		}
	}
	return nil
}

// TestIngestBilledToLivePrimary: once worker 1 is drained (or dead), a
// batch that shards to 1 is billed to the shard's live primary — no
// ingest byte crosses the evacuated host's access link.
func TestIngestBilledToLivePrimary(t *testing.T) {
	for name, evacuate := range map[string]func(*Engine) error{
		"drain": func(e *Engine) error { return e.DrainHost(1) },
		"kill":  func(e *Engine) error { _, _, err := e.Lifecycle().Kill(1); return err },
	} {
		t.Run(name, func(t *testing.T) {
			probe := &ingestProbe{linkBytes: map[int]float64{}}
			eng := streamEngine(t, func(c *Config) {
				c.Distributed = true
				c.Shards = 4
				c.Replication = 2
				c.Controller = probe
			})
			if err := eng.Place("events", "t"); err != nil {
				t.Fatal(err)
			}
			var batch []relational.Row
			for tm := int64(0); len(batch) < 8; tm++ {
				row := sev("a", tm, 1)
				one, err := relational.NewRelation("events", streamSchema).Extend([]relational.Row{row})
				if err != nil {
					t.Fatal(err)
				}
				if dist.AppendTransfers(one, 0, 4, dist.HashShard, 1)[0].Dst == 1 {
					batch = append(batch, row)
				}
			}
			if err := evacuate(eng); err != nil {
				t.Fatal(err)
			}
			ing, err := eng.AppendRows("events", batch)
			if err != nil {
				t.Fatal(err)
			}
			if ing.NetSeconds <= 0 {
				t.Fatalf("append billed no fabric time: %+v", ing)
			}
			onAccess := func(worker int) float64 {
				sum := 0.0
				for _, l := range eng.cluster.Net.Incident(eng.cluster.Workers[worker]) {
					sum += probe.linkBytes[l]
				}
				return sum
			}
			// With worker 1 out, shard 1's primary is the next live worker
			// on the ring.
			if old, live := onAccess(1), onAccess(2); old != 0 || live != ing.Bytes {
				t.Fatalf("ingest bytes on access links: evacuated host %v (want 0), live primary %v (want %v)", old, live, ing.Bytes)
			}
		})
	}
}

// TestSubscribeCancelNoLeak: cancelling a subscription mid-stream stops
// its delivery goroutine and detaches it from the hub.
func TestSubscribeCancelNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	eng := streamEngine(t, nil)
	sess := eng.Session()
	src, err := sess.StreamSource("events")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := sess.Subscribe(ctx, contQuery, stream.WindowSpec{TimeCol: "t", Size: 4, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Never read sub.Out(): emission must still unblock on cancel.
	for _, b := range streamBatches(500, 50) {
		if err := src.Append(b...); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	select {
	case <-sub.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled subscription did not stop")
	}
	if err := sub.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v", err)
	}
	// Appends after the cancel go nowhere but must not block or error.
	if err := src.Append(sev("a", 10_000, 1)); err != nil {
		t.Fatal(err)
	}
	for range 100 {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
}

// TestSubscribeRejectsNonStreamable: the continuous dialect is the
// aggregate subset — everything else fails at compile with a clear error.
func TestSubscribeRejectsNonStreamable(t *testing.T) {
	eng := streamEngine(t, nil)
	eng.Register(relational.NewRelation("dims", relational.Schema{{Name: "k", Type: relational.String}}))
	sess := eng.Session()
	spec := stream.WindowSpec{TimeCol: "t", Size: 10}
	cases := []struct{ q, want string }{
		{"SELECT k FROM events", "must aggregate"},
		{"SELECT * FROM events", "SELECT *"},
		{"SELECT e.k, COUNT(*) AS n FROM events e JOIN dims d ON e.k = d.k GROUP BY e.k", "join"},
		{"SELECT k, COUNT(*) AS n FROM events GROUP BY k ORDER BY n", "ORDER BY"},
		{"SELECT k, COUNT(*) AS n FROM events GROUP BY k LIMIT 3", "LIMIT"},
		{"SELECT k, COUNT(*) AS n FROM events GROUP BY k HAVING COUNT(*) > 1", "HAVING"},
		{"SELECT k, COUNT(*) AS n FROM missing GROUP BY k", "unknown table"},
	}
	for _, c := range cases {
		if _, err := sess.Subscribe(context.Background(), c.q, spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err %v, want %q", c.q, err, c.want)
		}
	}
	if _, err := sess.Subscribe(context.Background(), contQuery, stream.WindowSpec{TimeCol: "nope", Size: 10}); err == nil || !strings.Contains(err.Error(), "time column") {
		t.Fatalf("bad time column: %v", err)
	}
	if _, err := sess.Subscribe(context.Background(), contQuery, stream.WindowSpec{TimeCol: "k", Size: 10}); err == nil || !strings.Contains(err.Error(), "Int") {
		t.Fatalf("non-Int time column: %v", err)
	}
	if _, err := sess.StreamSource("missing"); err == nil {
		t.Fatal("StreamSource on unknown table must error")
	}
}

// registeredResult is a 5-event query result: column-built, as every
// batch result is, and named "result".
func registeredResult(t *testing.T) *relational.Relation {
	t.Helper()
	src := streamEngine(t, nil)
	if _, err := src.AppendRows("events", []relational.Row{
		sev("a", 1, 1), sev("b", 2, 2), sev("a", 3, 3), sev("c", 4, 4), sev("b", 5, 5),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := src.Session().Query(context.Background(), "SELECT k, t, v FROM events")
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// TestOracleScansColumnBuiltTable: the row engine — the oracle — counts
// the rows of a registered column-built table.
func TestOracleScansColumnBuiltTable(t *testing.T) {
	oracle, err := NewEngine(Config{Parallel: false})
	if err != nil {
		t.Fatal(err)
	}
	oracle.Register(registeredResult(t))
	got, err := oracle.Session().Query(context.Background(), "SELECT COUNT(*) AS n FROM result")
	if err != nil {
		t.Fatal(err)
	}
	if n := got.Rows.RowView()[0][0].I; n != 5 {
		t.Fatalf("row engine counts a registered 5-row result as %d", n)
	}
}

// TestSubscribePrimesColumnBuiltTable: a subscription on a registered
// column-built table is primed with its rows.
func TestSubscribePrimesColumnBuiltTable(t *testing.T) {
	eng := streamEngine(t, nil)
	eng.Register(registeredResult(t))
	sub, err := eng.Session().Subscribe(context.Background(),
		"SELECT k, COUNT(*) AS n FROM result GROUP BY k", stream.WindowSpec{TimeCol: "t", Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.CloseStream("result"); err != nil {
		t.Fatal(err)
	}
	for range sub.Out() {
	}
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
	if st := sub.Stats(); st.Events != 5 || st.Windows != 1 {
		t.Fatalf("subscription on a registered result saw %d events in %d windows, want 5 in 1", st.Events, st.Windows)
	}
}

// TestAppendValidation: appends type-check against the schema and fail
// atomically (the catalog keeps the pre-append relation).
func TestAppendValidation(t *testing.T) {
	eng := streamEngine(t, nil)
	if _, err := eng.AppendRows("events", []relational.Row{sev("a", 1, 1)}); err != nil {
		t.Fatal(err)
	}
	bad := relational.Row{relational.IntV(1), relational.IntV(2)}
	if _, err := eng.AppendRows("events", []relational.Row{sev("b", 2, 2), bad}); err == nil {
		t.Fatal("arity mismatch must error")
	}
	rel, _ := eng.Table("events")
	if rel.Len() != 1 {
		t.Fatalf("failed append leaked rows: len %d", rel.Len())
	}
	if _, err := eng.AppendRows("missing", []relational.Row{sev("a", 1, 1)}); err == nil {
		t.Fatal("append to unknown table must error")
	}
}

// TestStreamSnapshotIsolation: a query running while appends land sees a
// consistent snapshot — its row count is one of the acknowledged sizes,
// never a torn intermediate.
func TestStreamSnapshotIsolation(t *testing.T) {
	eng := streamEngine(t, nil)
	sess := eng.Session()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		i := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.AppendRows("events", []relational.Row{sev("a", i, 1), sev("b", i, 2), sev("c", i, 3)}); err != nil {
				t.Error(err)
				return
			}
			i++
		}
	}()
	for i := 0; i < 50; i++ {
		res, err := sess.Query(context.Background(), "SELECT COUNT(*) AS n FROM events")
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows.RowView()[0][0].I; n%3 != 0 {
			t.Fatalf("torn read: count %d is not a batch boundary", n)
		}
	}
	close(stop)
	<-done
}

// TestAppendBufferReuse: a caller may reuse its batch buffer the moment
// AppendRows returns — the hub must publish the catalog's stable copy,
// not the caller's slice, or subscriptions read overwritten events.
// (Regression: the rethink-sql -stream demo fed a recycled buffer and
// every queued batch mutated into the final one.)
func TestAppendBufferReuse(t *testing.T) {
	eng := streamEngine(t, nil)
	sess := eng.Session()
	sub, err := sess.Subscribe(context.Background(), contQuery,
		stream.WindowSpec{TimeCol: "t", Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]relational.Row, 0, 8)
	var i int64
	for batch := 0; batch < 16; batch++ {
		buf = buf[:0] // the hazard: same backing array every batch
		for j := 0; j < 8; j++ {
			buf = append(buf, sev(fmt.Sprintf("k%d", i%4), i/4, i))
			i++
		}
		if _, err := eng.AppendRows("events", buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.CloseStream("events"); err != nil {
		t.Fatal(err)
	}
	var total int64
	for w := range sub.Out() {
		for _, row := range w.Rows.RowView() {
			total += row[2].I // COUNT(*) per group
		}
	}
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.Events != 128 || total != 128 {
		t.Fatalf("subscription saw %d events, windows carry %d rows-worth; buffer reuse corrupted the queue", st.Events, total)
	}
	// Every event lands in its own tick-window slot: 128 events over
	// t=0..31 in windows of 4 ticks -> 8 windows, 16 events each.
	if st.Windows != 8 {
		t.Fatalf("windows = %d, want 8", st.Windows)
	}
}
