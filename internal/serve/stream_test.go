package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/relational"
	"repro/internal/sql"
)

// streamServer boots a distributed server fronting an empty "events"
// relation ready for streaming ingest.
func streamServer(t *testing.T, tenants *Tenants) *Server {
	t.Helper()
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 2
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Register(relational.NewRelation("events", relational.Schema{
		{Name: "k", Type: relational.String},
		{Name: "t", Type: relational.Int},
		{Name: "v", Type: relational.Int},
	}))
	return New(eng, tenants, Options{})
}

// rawDo posts a JSON body and returns the raw recorder (headers and
// all).
func rawDo(t *testing.T, h http.Handler, path, apiKey string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, &buf)
	req.Header.Set("Authorization", "Bearer "+apiKey)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// serveEvents is the deterministic fixture: keys cycle k0..k4, time
// advances every other event with disorder bounded by lateness 2.
func serveEvents(n int) [][]any {
	rows := make([][]any, n)
	for i := 0; i < n; i++ {
		tt := i/2 - i%2
		if tt < 0 {
			tt = 0
		}
		rows[i] = []any{fmt.Sprintf("k%d", i%5), tt, i % 7}
	}
	return rows
}

// TestServeStreamIngestSubscribeParity: batches in over /v1/stream, a
// subscription out as NDJSON, and every emitted window row-for-row
// equal to a /v1/sql batch query over the same time range.
func TestServeStreamIngestSubscribeParity(t *testing.T) {
	srv := streamServer(t, DefaultTenants())
	h := srv.Handler()
	events := serveEvents(300)

	for i := 0; i < len(events); i += 100 {
		var resp IngestResponse
		rec := rawDo(t, h, "/v1/stream", "gold-key", StreamRequest{Table: "events", Rows: events[i : i+100]})
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest: got %d: %s", rec.Code, rec.Body.String())
		}
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Start != int64(i) || resp.Rows != 100 {
			t.Fatalf("ingest ack = %+v, want start %d rows 100", resp, i)
		}
		if resp.Bytes <= 0 || resp.NetSeconds <= 0 {
			t.Fatalf("distributed ingest should bill bytes and fabric time: %+v", resp)
		}
		// Registration is data version 1; each batch bumps from there.
		if resp.DataEpoch != uint64(i/100+2) {
			t.Fatalf("DataEpoch = %d after batch %d", resp.DataEpoch, i/100)
		}
	}

	// Close the stream, then subscribe: primed rows replay through the
	// windower and the close flushes, so the response terminates.
	if rec := rawDo(t, h, "/v1/stream", "gold-key", StreamRequest{Table: "events", Close: true}); rec.Code != http.StatusOK {
		t.Fatalf("close: got %d: %s", rec.Code, rec.Body.String())
	}
	sub := rawDo(t, h, "/v1/stream", "gold-key", StreamRequest{
		SQL:    "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM events GROUP BY k",
		Window: &WindowRequest{TimeCol: "t", Size: 8, Slide: 4, Lateness: 2},
	})
	if sub.Code != http.StatusOK {
		t.Fatalf("subscribe: got %d: %s", sub.Code, sub.Body.String())
	}
	if ct := sub.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("subscribe Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(sub.Body.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("subscription emitted %d lines, want windows + done", len(lines))
	}
	var end StreamEnd
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &end); err != nil {
		t.Fatal(err)
	}
	if !end.Done || end.Error != "" || end.Tenant != "gold" {
		t.Fatalf("terminal line = %+v", end)
	}
	if end.Stats == nil || end.Stats.Events != 300 || end.Stats.Dropped != 0 {
		t.Fatalf("stream stats = %+v, want 300 events, 0 dropped", end.Stats)
	}
	wins := lines[:len(lines)-1]
	if len(wins) < 10 {
		t.Fatalf("only %d windows emitted", len(wins))
	}
	if int64(len(wins)) != end.Stats.Windows {
		t.Fatalf("emitted %d window lines, stats say %d", len(wins), end.Stats.Windows)
	}
	for _, line := range wins {
		var win StreamWindow
		if err := json.Unmarshal([]byte(line), &win); err != nil {
			t.Fatal(err)
		}
		batch := QueryRequest{SQL: fmt.Sprintf(
			"SELECT k, SUM(v) AS s, COUNT(*) AS n FROM events WHERE t >= %d AND t < %d GROUP BY k",
			win.Start, win.End)}
		var resp QueryResponse
		if code := do(t, h, "POST", "/v1/sql", "gold-key", batch, &resp); code != http.StatusOK {
			t.Fatalf("batch rerun: got %d", code)
		}
		if !reflect.DeepEqual(win.Rows, resp.Result.Rows) {
			t.Fatalf("window [%d,%d) diverges from batch:\nstream: %v\nbatch:  %v",
				win.Start, win.End, win.Rows, resp.Result.Rows)
		}
	}
	// Appends to a closed stream are refused.
	if rec := rawDo(t, h, "/v1/stream", "gold-key", StreamRequest{Table: "events", Rows: events[:1]}); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("append after close: got %d, want 422", rec.Code)
	}
}

// TestSubscriptionCountsRowsSent: a finished subscription adds the rows
// it wrote to its tenant's row count — every group of every window, not
// one per window — and counts as one query.
func TestSubscriptionCountsRowsSent(t *testing.T) {
	srv := streamServer(t, DefaultTenants())
	h := srv.Handler()
	if rec := rawDo(t, h, "/v1/stream", "gold-key", StreamRequest{Table: "events", Rows: serveEvents(300)}); rec.Code != http.StatusOK {
		t.Fatalf("ingest: got %d: %s", rec.Code, rec.Body.String())
	}
	if rec := rawDo(t, h, "/v1/stream", "gold-key", StreamRequest{Table: "events", Close: true}); rec.Code != http.StatusOK {
		t.Fatalf("close: got %d: %s", rec.Code, rec.Body.String())
	}
	before := *srv.MetricsSnapshot().Tenants["gold"]
	sub := rawDo(t, h, "/v1/stream", "gold-key", StreamRequest{
		SQL:    "SELECT k, COUNT(*) AS n FROM events GROUP BY k",
		Window: &WindowRequest{TimeCol: "t", Size: 8, Slide: 4, Lateness: 2},
	})
	lines := strings.Split(strings.TrimSpace(sub.Body.String()), "\n")
	sent := 0
	for _, line := range lines[:len(lines)-1] {
		var win StreamWindow
		if err := json.Unmarshal([]byte(line), &win); err != nil {
			t.Fatal(err)
		}
		sent += len(win.Rows)
	}
	if sent <= len(lines)-1 {
		t.Fatalf("%d rows over %d windows: the fixture must hold several groups per window", sent, len(lines)-1)
	}
	after := srv.MetricsSnapshot().Tenants["gold"]
	if rows, q := after.Rows-before.Rows, after.Queries-before.Queries; rows != uint64(sent) || q != 1 || after.Errors != before.Errors {
		t.Fatalf("subscription counted %d rows, %d queries, %d errors; it sent %d rows as one query",
			rows, q, after.Errors-before.Errors, sent)
	}
}

// TestServeStreamBadRequests: the mode matrix's error paths.
func TestServeStreamBadRequests(t *testing.T) {
	srv := streamServer(t, DefaultTenants())
	h := srv.Handler()
	cases := []struct {
		req  StreamRequest
		code int
	}{
		{StreamRequest{}, http.StatusBadRequest},
		{StreamRequest{Table: "events"}, http.StatusBadRequest}, // no rows, no close
		{StreamRequest{SQL: "SELECT 1", Table: "events", Close: true}, http.StatusBadRequest},
		{StreamRequest{SQL: "SELECT k FROM events"}, http.StatusBadRequest}, // no window
		{StreamRequest{Table: "nope", Rows: [][]any{{"a", 1, 2}}}, http.StatusUnprocessableEntity},
		{StreamRequest{Table: "events", Rows: [][]any{{"a", "not-int", 2}}}, http.StatusUnprocessableEntity},
		{StreamRequest{Table: "events", Rows: [][]any{{"a", 1}}}, http.StatusUnprocessableEntity},                                                             // arity
		{StreamRequest{SQL: "SELECT k FROM events", Window: &WindowRequest{TimeCol: "t", Size: 8}}, http.StatusUnprocessableEntity},                           // non-aggregate
		{StreamRequest{SQL: "SELECT k, COUNT(*) AS n FROM events GROUP BY k", Window: &WindowRequest{TimeCol: "k", Size: 8}}, http.StatusUnprocessableEntity}, // String time col
	}
	for i, c := range cases {
		if rec := rawDo(t, h, "/v1/stream", "gold-key", c.req); rec.Code != c.code {
			t.Fatalf("case %d: got %d, want %d: %s", i, rec.Code, c.code, rec.Body.String())
		}
	}
	if rec := rawDo(t, h, "/v1/stream", "", StreamRequest{Table: "events", Close: true}); rec.Code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated: got %d", rec.Code)
	}
}

// TestServeRateLimit: the token bucket refuses over-rate submissions
// with 429 + Retry-After on both endpoints, counts them per tenant, and
// refills with (injected) time. Unmetered tenants never hit it.
func TestServeRateLimit(t *testing.T) {
	tenants, err := NewTenants([]Tenant{
		{Name: "metered", APIKey: "m-key", RatePerSec: 1, Burst: 2},
		{Name: "free", APIKey: "f-key"},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := streamServer(t, tenants)
	now := time.Unix(1_000_000, 0)
	srv.limiter = newRateLimiter(func() time.Time { return now })
	h := srv.Handler()
	q := QueryRequest{SQL: "SELECT COUNT(*) AS n FROM events"}

	for i := 0; i < 2; i++ { // burst drains
		if rec := rawDo(t, h, "/v1/sql", "m-key", q); rec.Code != http.StatusOK {
			t.Fatalf("burst query %d: got %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := rawDo(t, h, "/v1/sql", "m-key", q)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-rate: got %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	// /v1/stream draws from the same bucket.
	if rec := rawDo(t, h, "/v1/stream", "m-key", StreamRequest{Table: "events", Close: true}); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("stream over-rate: got %d, want 429", rec.Code)
	}
	// The free tenant runs unmetered alongside.
	for i := 0; i < 5; i++ {
		if rec := rawDo(t, h, "/v1/sql", "f-key", q); rec.Code != http.StatusOK {
			t.Fatalf("free query %d: got %d", i, rec.Code)
		}
	}
	// A second of refill buys exactly one more token.
	now = now.Add(time.Second)
	if rec := rawDo(t, h, "/v1/sql", "m-key", q); rec.Code != http.StatusOK {
		t.Fatalf("post-refill: got %d", rec.Code)
	}
	if rec := rawDo(t, h, "/v1/sql", "m-key", q); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("post-refill second: got %d, want 429", rec.Code)
	}
	m := srv.MetricsSnapshot()
	if got := m.Tenants["metered"].RateLimited; got != 3 {
		t.Fatalf("metered rate_limited = %d, want 3", got)
	}
	if got := m.Tenants["free"].RateLimited; got != 0 {
		t.Fatalf("free rate_limited = %d, want 0", got)
	}
}

// TestServeStreamDrainEndsSubscription: a held-open subscription must
// not wedge graceful shutdown — drain cancels it and completes.
func TestServeStreamDrainEndsSubscription(t *testing.T) {
	srv := streamServer(t, DefaultTenants())
	h := srv.Handler()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- rawDo(t, h, "/v1/stream", "gold-key", StreamRequest{
			SQL:    "SELECT k, COUNT(*) AS n FROM events GROUP BY k",
			Window: &WindowRequest{TimeCol: "t", Size: 8},
		})
	}()
	// Wait for the subscription to be admitted before draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		n := srv.inflightCount
		srv.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain wedged on subscription: %v", err)
	}
	rec := <-done
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var end StreamEnd
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &end); err != nil {
		t.Fatalf("terminal line: %v (%q)", err, rec.Body.String())
	}
	if !end.Done || end.Error == "" {
		t.Fatalf("drained subscription should report its cancellation: %+v", end)
	}
}
