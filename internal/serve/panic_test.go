package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestPanickingHandlerAnswers500: a handler that panics answers its client
// 500 with the JSON error envelope naming the route — over a real
// connection, where net/http's own recovery would drop the socket and
// leave the client with no status and no body — and /metrics counts it.
// What the request held is released as the panic unwinds: another
// tenant's query succeeds afterwards, so does the panicking tenant's next
// one, and a drain completes.
func TestPanickingHandlerAnswers500(t *testing.T) {
	const boom = "SELECT COUNT(*) AS n FROM sales"
	srv := testServer(t, 500)
	srv.beforeExecute = func(tn *Tenant, req QueryRequest) {
		if tn.Name == "bronze" && req.SQL == boom {
			panic("injected handler fault")
		}
	}
	prev := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(prev)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	post := func(path, key string, body any) (int, []byte) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest("POST", hs.URL+path, bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", key)
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatalf("POST %s: no answer: %v", path, err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	code, body := post("/v1/sql", "bronze-key", QueryRequest{SQL: boom})
	var env errorBody
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("panicking request answered %d with a body that is not the error envelope: %q", code, body)
	}
	if code != http.StatusInternalServerError || !strings.Contains(env.Error, "POST /v1/sql") || !strings.Contains(env.Error, "injected handler fault") {
		t.Fatalf("panicking request: %d %+v, want 500 naming the route and the panic", code, env)
	}

	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.PanicsTotal != 1 || m.Inflight != 0 {
		t.Fatalf("after one panic: panics_total %d, inflight %d; want 1 and 0", m.PanicsTotal, m.Inflight)
	}

	for _, c := range []struct{ key, sql string }{{"gold-key", boom}, {"bronze-key", testQuery}} {
		if code, body := post("/v1/sql", c.key, QueryRequest{SQL: c.sql}); code != http.StatusOK {
			t.Fatalf("%s after the panic: %d %s", c.key, code, body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain after a panic: %v (the panicking request's admission was never released)", err)
	}
}
