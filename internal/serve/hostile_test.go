package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/relational"
	"repro/internal/serve/wire"
	"repro/internal/sql"
	"repro/internal/stream"
)

// liveHeap is the heap's live object bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hostileEngine is a replicated 4-shard engine whose fault plan cuts
// worker 3 off the fabric at the first query, over the demo tables and
// an empty "ticks" stream table.
func hostileEngine(t *testing.T, faults string) *sql.Engine {
	t.Helper()
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 4
	cfg.Replication = 2
	if faults != "" {
		plan, err := lifecycle.ParsePlan(faults, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
	}
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sql.RegisterDemo(eng, 42, 2000, 50)
	eng.Register(relational.NewRelation("ticks", relational.Schema{
		{Name: "t", Type: relational.Int},
		{Name: "v", Type: relational.Int},
	}))
	return eng
}

// ticksBody is an ingest body of n rows [t, t%7] from t = start on.
func ticksBody(start, n int) []byte {
	b := []byte(`{"table":"ticks","rows":[`)
	for t := start; t < start+n; t++ {
		if t > start {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(t), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t%7), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// TestDaemonSurvivesHostileTenant: one daemon, a partitioned fabric, and
// a tenant doing everything wrong at once — a body one byte over
// MaxRequestBytes, a subscriber that never reads its stream while
// ingest runs three halves of stream.MaxQueuedRows past it, and a
// request that panics its handler. Each failure fails that one request:
// the other tenant's queries answer 200 with the rows of a fault-free
// engine, /healthz stays 200, the stuck subscription ends with the
// backlog error, and the live heap afterwards holds the ingested table
// and not the abandoned queue or the refused body.
func TestDaemonSurvivesHostileTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 1.5M rows")
	}
	const boom = "SELECT COUNT(*) AS n FROM customers"
	eng := hostileEngine(t, "partition:3@0")
	srv := New(eng, DefaultTenants(), Options{})
	srv.beforeExecute = func(tn *Tenant, req QueryRequest) {
		if tn.Name == "gold" && req.SQL == boom {
			panic("injected handler fault")
		}
	}
	prev := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(prev)
	h := srv.Handler()
	hs := httptest.NewServer(h)
	defer hs.Close()

	ref, err := hostileEngine(t, "").Session().Query(context.Background(), testQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.Fingerprint(wire.FromResult(ref))
	call := func(method, path, key string, body []byte) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, hs.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", key)
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: no answer: %v", method, path, err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	// serving asserts the other tenant is unaffected: its query answers
	// 200 with the fault-free rows, and the daemon reports healthy.
	serving := func(when string) {
		t.Helper()
		code, body := call("POST", "/v1/sql", "bronze-key", []byte(`{"sql":"`+testQuery+`"}`))
		var resp QueryResponse
		if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
			t.Fatalf("%s: bronze query answered %d: %s", when, code, body)
		}
		if got := wire.Fingerprint(resp.Result); got != want {
			t.Fatalf("%s: bronze rows differ from the fault-free engine:\n%s\nvs\n%s", when, got, want)
		}
		if code, body := call("GET", "/healthz", "", nil); code != http.StatusOK {
			t.Fatalf("%s: /healthz answered %d: %s", when, code, body)
		}
	}

	serving("first query, partition fired")
	before := liveHeap()

	// The subscriber: its request is sent, and its body never read until
	// the ingest below is done. Once the socket's buffers fill, its
	// handler blocks writing, and published batches queue behind it.
	// Cancelling hangs the subscriber up, so an early failure does not
	// leave hs.Close waiting on its blocked handler.
	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	stuck := make(chan *http.Response, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, "POST", hs.URL+"/v1/stream", strings.NewReader(
			`{"sql":"SELECT t, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS mean FROM ticks GROUP BY t",`+
				`"window":{"time_col":"t","size":64}}`))
		req.Header.Set("X-API-Key", "gold-key")
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Errorf("subscribe: %v", err)
			resp = nil
		}
		stuck <- resp
	}()

	const batch = 1 << 16
	total := 3 * stream.MaxQueuedRows / 2
	for start := 0; start < total; start += batch {
		if code, body := call("POST", "/v1/stream", "gold-key", ticksBody(start, batch)); code != http.StatusOK {
			t.Fatalf("ingest at %d: %d %s", start, code, body)
		}
		switch start {
		case batch:
			// One byte over the cap: refused 413. In process, because a
			// client still writing 32 MiB races the early answer on a socket.
			req := httptest.NewRequest("POST", "/v1/sql", sizedBody(`{"sql":"`, 'a', "", MaxRequestBytes+1))
			req.Header.Set("X-API-Key", "gold-key")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized body: got %d, want 413", rec.Code)
			}
			serving("after the oversized body")
		case 2 * batch:
			if code, body := call("POST", "/v1/sql", "gold-key", []byte(`{"sql":"`+boom+`"}`)); code != http.StatusInternalServerError {
				t.Fatalf("panicking request: got %d (%s), want 500", code, body)
			}
			serving("after the handler panic")
		}
	}
	// Closing the stream ends a subscription that kept up, so a missing
	// backlog bound fails below instead of hanging.
	if code, body := call("POST", "/v1/stream", "gold-key", []byte(`{"table":"ticks","close":true}`)); code != http.StatusOK {
		t.Fatalf("close: %d %s", code, body)
	}
	serving("with the subscriber stuck")

	resp := <-stuck
	if resp == nil {
		t.FailNow()
	}
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var end StreamEnd
	if err := json.Unmarshal(last, &end); err != nil || !end.Done || end.Error != stream.ErrBacklog.Error() {
		t.Fatalf("the stuck subscription ended with %q (%v), want the backlog error", last, err)
	}
	if m := srv.MetricsSnapshot(); m.Tenants["gold"].Errors != 1 || m.PanicsTotal != 1 {
		t.Fatalf("gold errors %d, panics %d: want the backlogged subscription and the one panic", m.Tenants["gold"].Errors, m.PanicsTotal)
	}
	serving("after the subscriber ended")

	ticks, _ := eng.Table("ticks")
	table := int64(ticks.EncodedBytes())
	if grown := int64(liveHeap()) - int64(before); grown > table+8<<20 {
		t.Fatalf("live heap grew %d bytes; the ingested table's %d bytes and 8 MiB of slack account for less", grown, table)
	}
}
