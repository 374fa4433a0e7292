package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/wire"
)

var eventsSchema = []wire.Column{{Name: "k", Type: "string"}, {Name: "t", Type: "int"}, {Name: "v", Type: "int"}}

// eventGen produces the stream's events from the seed and keeps the
// running per-key tally every read is checked against.
type eventGen struct {
	rng   *rand.Rand
	keys  int
	next  int64 // event time of the next event: strictly increasing, so no event is late
	count map[string]int64
	sum   map[string]int64
}

func newEventGen(seed uint64, keys int) *eventGen {
	return &eventGen{rng: rand.New(rand.NewSource(int64(seed))), keys: keys, count: map[string]int64{}, sum: map[string]int64{}}
}

// batch returns the next n events as wire rows (k, t, v).
func (g *eventGen) batch(n int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		k := fmt.Sprintf("k%03d", g.rng.Intn(g.keys))
		v := int64(g.rng.Intn(97))
		rows[i] = []any{k, g.next, v}
		g.next++
		g.count[k]++
		g.sum[k] += v
	}
	return rows
}

// expected is what streamReadSQL must return now: per key its count and
// sum, ordered by sum descending then key.
func (g *eventGen) expected() [][]any {
	rows := make([][]any, 0, len(g.count))
	for k, n := range g.count {
		rows = append(rows, []any{k, n, g.sum[k]})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a[2].(int64) != b[2].(int64) {
			return a[2].(int64) > b[2].(int64)
		}
		return a[0].(string) < b[0].(string)
	})
	return rows
}

// registerEvents creates (or replaces) an empty events-shaped table.
func registerEvents(ctx context.Context, c *conn, table string) error {
	_, err := c.post(ctx, "/v1/tables", serve.TableRequest{Name: table, Schema: eventsSchema})
	return err
}

// setupStream spawns an empty daemon and warms the write and read paths
// on a scratch table, then registers the table the run streams into.
func setupStream(rc runCfg) (*daemon, error) {
	d, err := startDaemon(rc.DaemonBin, "-rows", "0", "-dist", "-shards", "4")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	c := newConn(d.base, tenantKeys[0])
	defer c.close()
	err = registerEvents(ctx, c, "warmup")
	gen := newEventGen(rc.Seed, rc.Scale.Keys)
	for i := 0; i < 2 && err == nil; i++ {
		if _, err = c.post(ctx, "/v1/stream", serve.StreamRequest{Table: "warmup", Rows: gen.batch(rc.Scale.BatchEvents)}); err == nil {
			_, err = c.post(ctx, "/v1/sql", serve.QueryRequest{SQL: "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM warmup GROUP BY k ORDER BY total DESC, k", Prepare: true})
		}
	}
	if err == nil {
		err = registerEvents(ctx, c, "events")
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("warm stream: %w", err)
	}
	return d, nil
}

// subscribe holds a sliding-window subscription open and reads it down
// to its terminal line, returning the window lines seen and the
// terminal stats.
func subscribe(ctx context.Context, c *conn) (int, *serve.StreamEnd, error) {
	data, err := json.Marshal(serve.StreamRequest{SQL: streamWindowSQL, Window: &serve.WindowRequest{TimeCol: "t", Size: 1000, Slide: 250}})
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.send(ctx, "/v1/stream", data)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	windows := 0
	for {
		var line struct {
			serve.StreamEnd
			// A window line carries neither done nor stats; skip its rows.
			Rows json.RawMessage `json:"rows"`
		}
		if err := dec.Decode(&line); err != nil {
			if err == io.EOF {
				err = fmt.Errorf("subscription ended without a terminal line")
			}
			return windows, nil, err
		}
		if line.Done {
			if line.Error != "" {
				return windows, &line.StreamEnd, fmt.Errorf("subscription: %s", line.Error)
			}
			return windows, &line.StreamEnd, nil
		}
		windows++
	}
}

// runStreamRW runs writes beside reads on one growing table of a
// spawned rethinkd. Connection 1 holds a subscription open; connection
// 2 follows a fixed schedule of ingest batches with a read after every
// ReadEvery-th batch, then closes the stream.
func runStreamRW(rc runCfg) (*runResult, error) {
	out := newResult(rc)
	d, setups, err := setupDaemonRepeated(rc, setupStream)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	subConn := newConn(d.base, tenantKeys[0])
	defer subConn.close()
	type subResult struct {
		windows int
		end     *serve.StreamEnd
		err     error
	}
	subCh := make(chan subResult, 1)
	go func() {
		n, end, err := subscribe(ctx, subConn)
		subCh <- subResult{n, end, err}
	}()

	c := newConn(d.base, tenantKeys[1])
	defer c.close()
	gen := newEventGen(rc.Seed, rc.Scale.Keys)
	batches := int(float64(rc.Scale.BatchesPerSecond) * rc.Seconds)
	rec := newRecorder()
	events := 0
	ackSum := 0.0
	start := time.Now()
	for b := 1; b <= batches; b++ {
		rows := gen.batch(rc.Scale.BatchEvents)
		sp := rc.tr.begin("op.ingest", b, -1)
		t0 := time.Now()
		body, err := c.post(ctx, "/v1/stream", serve.StreamRequest{Table: "events", Rows: rows})
		lat := ms(time.Since(t0))
		rc.tr.end(sp)
		var ack serve.IngestResponse
		if err == nil {
			err = json.Unmarshal(body, &ack)
		}
		switch {
		case err != nil:
			rec.fail("ingest batch %d: %v", b, err)
		case ack.Rows != len(rows) || ack.Start != gen.next-int64(len(rows)):
			rec.fail("ingest batch %d: acked %d rows at %d, sent %d at %d", b, ack.Rows, ack.Start, len(rows), gen.next-int64(len(rows)))
		default:
			rec.ok("ingest", lat)
			events += len(rows)
			ackSum += lat / 1e3
		}
		if b%rc.Scale.ReadEvery != 0 {
			continue
		}
		sp = rc.tr.begin("op.groupby", b, -1)
		t0 = time.Now()
		body, err = c.post(ctx, "/v1/sql", serve.QueryRequest{SQL: streamReadSQL, Prepare: true})
		lat = ms(time.Since(t0))
		rc.tr.end(sp)
		var got [][]any
		if err == nil {
			got, err = decodeRows(body)
		}
		want := gen.expected()
		if rc.corruptRef {
			want[0][1] = int64(-1)
		}
		if err == nil {
			err = sameRows(want, got)
		}
		if err != nil {
			rec.fail("read after batch %d: %v", b, err)
		} else {
			rec.ok("groupby", lat)
		}
	}
	wall := time.Since(start).Seconds()
	if _, err := c.post(ctx, "/v1/stream", serve.StreamRequest{Table: "events", Close: true}); err != nil {
		rec.fail("close stream: %v", err)
	}
	// The subscription's terminal line is checked against the schedule:
	// it must have seen every event and read as many window lines as it
	// reports emitted.
	select {
	case sub := <-subCh:
		switch {
		case sub.err != nil:
			rec.fail("subscription: %v", sub.err)
		case sub.end.Stats == nil || sub.end.Stats.Events != int64(events) || sub.end.Stats.Windows != int64(sub.windows):
			rec.fail("subscription saw %+v over %d window lines, schedule sent %d events", sub.end.Stats, sub.windows, events)
		default:
			rec.attempted++
			st := sub.end.Stats
			out.set("stream.window_fresh_p50_ms", st.FreshnessP50*1e3)
			out.set("stream.window_fresh_p95_ms", st.FreshnessP95*1e3)
			out.set("stream.windows_emitted", float64(st.Windows))
			out.set("stream.late", float64(st.Late))
			out.set("stream.dropped", float64(st.Dropped))
		}
	case <-time.After(30 * time.Second):
		rec.fail("subscription did not end within 30 s of the close")
	}

	out.finish(rec, []string{"ingest", "groupby"})
	out.set("setup_s", median(setups))
	out.set("throughput_ops_s", float64(len(rec.lat["ingest"])+len(rec.lat["groupby"]))/wall)
	out.set("latency_p90_ms", quantile(rec.lat["ingest"], 0.90))
	out.Samples["latency_p90_ms"] = len(rec.lat["ingest"])
	out.set("peak_rss_mb", d.peakRSSMB())
	if ackSum > 0 {
		out.set("stream.ingest_events_s", float64(events)/ackSum)
	}
	out.wallS = wall
	return out, nil
}
