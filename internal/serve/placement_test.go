package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/serve/wire"
)

// TestNonFiniteResultIsNotEmpty200: JSON has no number for ±Inf or NaN,
// so a result holding one cannot be encoded. The answer is a 500 whose
// body names the failure — never a 200 with an empty body — and the
// daemon keeps serving: another tenant's query succeeds next.
func TestNonFiniteResultIsNotEmpty200(t *testing.T) {
	h := testServer(t, 500).Handler()
	table := TableRequest{Name: "f", Schema: []wire.Column{{Name: "v", Type: "float"}}, Rows: [][]any{{1e308}, {1e308}}}
	if rec := rawDo(t, h, "/v1/tables", "gold-key", table); rec.Code != http.StatusOK {
		t.Fatalf("register f: %d %s", rec.Code, rec.Body.String())
	}
	rec := rawDo(t, h, "/v1/sql", "gold-key", QueryRequest{SQL: "SELECT SUM(v) AS s FROM f"})
	if rec.Code == http.StatusOK {
		t.Fatalf("an unencodable result answered 200 with body %q", rec.Body.String())
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "+Inf") {
		t.Fatalf("status %d, body %q: want a JSON error naming the failure", rec.Code, rec.Body.String())
	}
	var resp QueryResponse
	if code := do(t, h, "POST", "/v1/sql", "bronze-key", QueryRequest{SQL: testQuery}, &resp); code != http.StatusOK || resp.Result.RowCount == 0 {
		t.Fatalf("the next tenant's query: %d, %d rows", code, resp.Result.RowCount)
	}
}

// TestNonFiniteWindowEndsStream: a subscription window that cannot be
// encoded ends the NDJSON stream with one end line carrying the failure;
// no torn or empty line precedes it.
func TestNonFiniteWindowEndsStream(t *testing.T) {
	srv := streamServer(t, DefaultTenants())
	h := srv.Handler()
	if rec := rawDo(t, h, "/v1/tables", "gold-key", TableRequest{Name: "big",
		Schema: []wire.Column{{Name: "k", Type: "string"}, {Name: "t", Type: "int"}, {Name: "v", Type: "float"}},
	}); rec.Code != http.StatusOK {
		t.Fatalf("register big: %d %s", rec.Code, rec.Body.String())
	}
	rows := [][]any{{"a", 0, 1e308}, {"a", 1, 1e308}, {"a", 9, 1.0}}
	if rec := rawDo(t, h, "/v1/stream", "gold-key", StreamRequest{Table: "big", Rows: rows}); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	if rec := rawDo(t, h, "/v1/stream", "gold-key", StreamRequest{Table: "big", Close: true}); rec.Code != http.StatusOK {
		t.Fatalf("close: %d %s", rec.Code, rec.Body.String())
	}
	sub := rawDo(t, h, "/v1/stream", "gold-key", StreamRequest{
		SQL:    "SELECT k, SUM(v) AS s FROM big GROUP BY k",
		Window: &WindowRequest{TimeCol: "t", Size: 4},
	})
	lines := strings.Split(strings.TrimSpace(sub.Body.String()), "\n")
	for _, line := range lines[:len(lines)-1] {
		var win StreamWindow
		if err := json.Unmarshal([]byte(line), &win); err != nil {
			t.Fatalf("window line %q: %v", line, err)
		}
	}
	var end StreamEnd
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &end); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !end.Done || !strings.Contains(end.Error, "not encodable") || !strings.Contains(end.Error, "+Inf") {
		t.Fatalf("the stream ended with %+v, want its end line to name the unencodable window", end)
	}
	if len(lines) != 1 {
		t.Fatalf("the first window is the unencodable one, yet %d lines precede the end", len(lines)-1)
	}
	if c := srv.MetricsSnapshot().Tenants["gold"]; c.Errors != 1 || c.Queries != 0 {
		t.Fatalf("the failed subscription counted as %d queries, %d errors; want 0 and 1", c.Queries, c.Errors)
	}
}

// TestTablesPlaceShardKey: /v1/tables's shard_key hash-places the table
// on that column — two tables placed on their join key join without
// moving — and a shard_key naming no column is refused 422, registering
// nothing.
func TestTablesPlaceShardKey(t *testing.T) {
	h := testServer(t, 500).Handler()
	orders := TableRequest{Name: "orders", ShardKey: "cust",
		Schema: []wire.Column{{Name: "id", Type: "int"}, {Name: "cust", Type: "int"}, {Name: "amount", Type: "float"}}}
	for i := range 200 {
		orders.Rows = append(orders.Rows, []any{i, i % 17, float64(i) / 4})
	}
	custs := TableRequest{Name: "custs", ShardKey: "cust",
		Schema: []wire.Column{{Name: "cust", Type: "int"}, {Name: "seg", Type: "string"}}}
	for k := range 17 {
		custs.Rows = append(custs.Rows, []any{k, []string{"a", "b", "c"}[k%3]})
	}
	for _, c := range []struct {
		name string
		req  TableRequest
		code int
	}{
		{"missing column", TableRequest{Name: "bad", ShardKey: "nope", Schema: orders.Schema, Rows: orders.Rows}, http.StatusUnprocessableEntity},
		{"case differs", TableRequest{Name: "bad", ShardKey: "CUST", Schema: orders.Schema}, http.StatusUnprocessableEntity},
		{"orders", orders, http.StatusOK},
		{"custs", custs, http.StatusOK},
	} {
		if rec := rawDo(t, h, "/v1/tables", "gold-key", c.req); rec.Code != c.code {
			t.Fatalf("%s: got %d (%s), want %d", c.name, rec.Code, rec.Body.String(), c.code)
		}
	}
	if rec := rawDo(t, h, "/v1/sql", "gold-key", QueryRequest{SQL: "SELECT COUNT(*) AS n FROM bad"}); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("a refused table was registered: %d %s", rec.Code, rec.Body.String())
	}
	var resp QueryResponse
	q := QueryRequest{SQL: "SELECT c.seg, COUNT(*) AS n, SUM(o.amount) AS v FROM orders o JOIN custs c ON o.cust = c.cust GROUP BY c.seg ORDER BY c.seg"}
	if code := do(t, h, "POST", "/v1/sql", "gold-key", q, &resp); code != http.StatusOK {
		t.Fatalf("join: %d", code)
	}
	if resp.Result.RowCount != 3 || !strings.Contains(strings.Join(resp.Result.Steps, "\n"), "movement=local") {
		t.Fatalf("co-placed join: %d rows, plan\n%s", resp.Result.RowCount, strings.Join(resp.Result.Steps, "\n"))
	}
	if p := resp.Result.Net.Phases[0]; p.Name != "local#0" || p.Flows != 0 {
		t.Fatalf("co-placed join's first phase %+v, want an empty local#0", p)
	}
}
