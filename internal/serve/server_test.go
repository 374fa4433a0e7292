package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve/wire"
	"repro/internal/sql"
)

// testEngine builds a small distributed engine with the demo catalog.
func testEngine(t *testing.T, rows int) *sql.Engine {
	t.Helper()
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 2
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sql.RegisterDemo(eng, 42, rows, 50)
	return eng
}

func testServer(t *testing.T, rows int) *Server {
	t.Helper()
	return New(testEngine(t, rows), DefaultTenants(), Options{})
}

// do posts a JSON body and decodes the JSON response into out.
func do(t *testing.T, h http.Handler, method, path, apiKey string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.NewDecoder(rec.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: bad response JSON: %v", method, path, err)
		}
	}
	return rec.Code
}

const testQuery = "SELECT region, COUNT(*) AS orders, SUM(price) AS revenue FROM sales GROUP BY region ORDER BY revenue DESC"

// TestServeAuth: requests without a key, with an unknown key, and with
// each header form.
func TestServeAuth(t *testing.T) {
	srv := testServer(t, 500)
	h := srv.Handler()
	if code := do(t, h, "POST", "/v1/sql", "", QueryRequest{SQL: testQuery}, nil); code != http.StatusUnauthorized {
		t.Fatalf("no key: got %d, want 401", code)
	}
	if code := do(t, h, "POST", "/v1/sql", "wrong-key", QueryRequest{SQL: testQuery}, nil); code != http.StatusUnauthorized {
		t.Fatalf("unknown key: got %d, want 401", code)
	}
	var resp QueryResponse
	if code := do(t, h, "POST", "/v1/sql", "gold-key", QueryRequest{SQL: testQuery}, &resp); code != http.StatusOK {
		t.Fatalf("bearer auth: got %d, want 200", code)
	}
	if resp.Tenant != "gold" {
		t.Fatalf("tenant = %q, want gold", resp.Tenant)
	}
	// X-API-Key form.
	req := httptest.NewRequest("POST", "/v1/sql", bytes.NewBufferString(`{"sql":"SELECT COUNT(*) AS n FROM customers"}`))
	req.Header.Set("X-API-Key", "bronze-key")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("X-API-Key auth: got %d, want 200", rec.Code)
	}
}

// TestServeRowParity: rows served over the wire are row-for-row
// identical to direct library execution, and the full stats envelope
// (net, admission) rides along for distributed runs.
func TestServeRowParity(t *testing.T) {
	eng := testEngine(t, 2000)
	srv := New(eng, DefaultTenants(), Options{})
	var resp QueryResponse
	if code := do(t, srv.Handler(), "POST", "/v1/sql", "gold-key", QueryRequest{SQL: testQuery}, &resp); code != http.StatusOK {
		t.Fatalf("query: got %d", code)
	}
	// Direct execution on a fresh engine with the identical catalog (the
	// served engine's fabric already carries the first query's flows).
	ref := testEngine(t, 2000)
	res, err := ref.Session().Query(context.Background(), testQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.Fingerprint(wire.FromResult(res))
	got := wire.Fingerprint(resp.Result)
	if got != want {
		t.Fatalf("served rows differ from direct execution:\n%s\nvs\n%s", got, want)
	}
	if resp.Result.Net == nil || resp.Result.Net.Shards != 2 {
		t.Fatalf("distributed result missing net stats: %+v", resp.Result.Net)
	}
	if resp.Result.Admission == nil || resp.Result.Admission.Class != "interactive" || resp.Result.Admission.Weight != 3 {
		t.Fatalf("admission stats missing tenant QoS: %+v", resp.Result.Admission)
	}
	if resp.ModelMS <= 0 {
		t.Fatalf("ModelMS = %v, want > 0 for a distributed run", resp.ModelMS)
	}
}

// TestServeTenantQoSMapping: each tenant's configured session defaults
// reach the engine (class/weight visible in the admission report).
func TestServeTenantQoSMapping(t *testing.T) {
	srv := testServer(t, 500)
	var gold, bronze QueryResponse
	do(t, srv.Handler(), "POST", "/v1/sql", "gold-key", QueryRequest{SQL: testQuery}, &gold)
	do(t, srv.Handler(), "POST", "/v1/sql", "bronze-key", QueryRequest{SQL: testQuery}, &bronze)
	if gold.Result.Admission.Class != "interactive" || gold.Result.Admission.Weight != 3 {
		t.Fatalf("gold admission = %+v", gold.Result.Admission)
	}
	if bronze.Result.Admission.Class != "" || bronze.Result.Admission.Weight != 1 {
		t.Fatalf("bronze admission = %+v", bronze.Result.Admission)
	}
}

// TestServeTables: registering a relation over the wire, then querying
// it; types round-trip and the catalog epoch moves.
func TestServeTables(t *testing.T) {
	srv := testServer(t, 100)
	h := srv.Handler()
	var before Metrics
	do(t, h, "GET", "/metrics", "", nil, &before)
	table := TableRequest{
		Name: "cities",
		Schema: []wire.Column{
			{Name: "id", Type: "int"},
			{Name: "name", Type: "string"},
			{Name: "pop", Type: "float"},
		},
		Rows: [][]any{
			{1, "lisbon", 0.5},
			{2, "berlin", 3.7},
			{3, "athens", 0.6},
		},
	}
	var tresp TableResponse
	if code := do(t, h, "POST", "/v1/tables", "gold-key", table, &tresp); code != http.StatusOK {
		t.Fatalf("register: got %d", code)
	}
	if tresp.Rows != 3 || tresp.CatalogEpoch != before.CatalogEpoch+1 {
		t.Fatalf("register response %+v (epoch before %d)", tresp, before.CatalogEpoch)
	}
	var resp QueryResponse
	if code := do(t, h, "POST", "/v1/sql", "bronze-key", QueryRequest{SQL: "SELECT name, pop FROM cities WHERE id >= 2 ORDER BY name"}, &resp); code != http.StatusOK {
		t.Fatalf("query: got %d", code)
	}
	if resp.Result.RowCount != 2 || resp.Result.Rows[0][0] != "athens" {
		t.Fatalf("rows = %v", resp.Result.Rows)
	}
	// Bad rows are rejected with a clear error.
	bad := table
	bad.Rows = [][]any{{1.5, "x", 1.0}}
	if code := do(t, h, "POST", "/v1/tables", "gold-key", bad, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("fractional int: got %d, want 422", code)
	}
}

// TestServeMetrics: counters move with traffic.
func TestServeMetrics(t *testing.T) {
	srv := testServer(t, 500)
	h := srv.Handler()
	for i := 0; i < 3; i++ {
		if code := do(t, h, "POST", "/v1/sql", "gold-key", QueryRequest{SQL: testQuery, Prepare: true}, nil); code != http.StatusOK {
			t.Fatalf("query %d: got %d", i, code)
		}
	}
	do(t, h, "POST", "/v1/sql", "bronze-key", QueryRequest{SQL: "SELECT nope FROM sales"}, nil)
	var m Metrics
	do(t, h, "GET", "/metrics", "", nil, &m)
	if m.QueriesServed != 3 {
		t.Fatalf("served = %d, want 3", m.QueriesServed)
	}
	g := m.Tenants["gold"]
	if g == nil || g.Queries != 3 || g.CacheHits != 2 {
		t.Fatalf("gold counters = %+v (want 3 queries, 2 cache hits)", g)
	}
	b := m.Tenants["bronze"]
	if b == nil || b.Errors != 1 {
		t.Fatalf("bronze counters = %+v (want 1 error)", b)
	}
	if m.PlanCache.Hits != 2 || m.PlanCache.Misses != 1 {
		t.Fatalf("plan cache = %+v", m.PlanCache)
	}
	if m.Fabric == nil || m.Fabric.Admission == nil || m.Fabric.Admission.Rounds == 0 {
		t.Fatalf("fabric metrics missing: %+v", m.Fabric)
	}
	if m.Fabric.Admission.ClassBytes["interactive"] <= 0 {
		t.Fatalf("per-class bytes missing interactive traffic: %v", m.Fabric.Admission.ClassBytes)
	}
}

// TestServeHealthz flips to 503 once draining.
func TestServeHealthz(t *testing.T) {
	srv := testServer(t, 100)
	h := srv.Handler()
	if code := do(t, h, "GET", "/healthz", "", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code := do(t, h, "GET", "/healthz", "", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", code)
	}
}

// TestServeBadRequests: malformed bodies are 400s, SQL errors 422s.
func TestServeBadRequests(t *testing.T) {
	srv := testServer(t, 100)
	h := srv.Handler()
	req := httptest.NewRequest("POST", "/v1/sql", bytes.NewBufferString("{not json"))
	req.Header.Set("Authorization", "Bearer gold-key")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body: got %d, want 400", rec.Code)
	}
	if code := do(t, h, "POST", "/v1/sql", "gold-key", QueryRequest{SQL: "SELEKT 1"}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad SQL: got %d, want 422", code)
	}
}

// filler is an endless run of one byte.
type filler byte

func (f filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// sizedBody is a request body of exactly n bytes: head, then fill bytes,
// then tail.
func sizedBody(head string, fill byte, tail string, n int) io.Reader {
	return io.MultiReader(strings.NewReader(head), io.LimitReader(filler(fill), int64(n-len(head)-len(tail))), strings.NewReader(tail))
}

// TestServeRefusesOversizedBodies: a body one byte past MaxRequestBytes
// on any decoding endpoint is refused 413 — each one a JSON string that
// never closes, so the decoder reads until the cap stops it — while a
// body of exactly the cap still parses, and another tenant's query runs
// afterwards.
func TestServeRefusesOversizedBodies(t *testing.T) {
	srv := testServer(t, 200)
	h := srv.Handler()
	const over = MaxRequestBytes + 1
	cases := []struct {
		path string
		body io.Reader
		want int
	}{
		// Exercise possible failure modes: every decoding endpoint, one
		// byte over the cap.
		{"/v1/sql", sizedBody(`{"sql":"`, 'a', "", over), http.StatusRequestEntityTooLarge},
		{"/v1/tables", sizedBody(`{"name":"`, 'a', "", over), http.StatusRequestEntityTooLarge},
		{"/v1/stream", sizedBody(`{"table":"`, 'a', "", over), http.StatusRequestEntityTooLarge},
		{"/v1/gang", sizedBody(`{"announce":`, '1', "", over), http.StatusRequestEntityTooLarge},
		{"/v1/hosts", sizedBody(`{"action":"`, 'a', "", over), http.StatusRequestEntityTooLarge},
		// At the cap exactly, the body is read whole.
		{"/v1/sql", sizedBody("", ' ', `{"sql":"SELECT COUNT(*) AS n FROM customers"}`, MaxRequestBytes), http.StatusOK},
	}
	for _, c := range cases {
		req := httptest.NewRequest("POST", c.path, c.body)
		req.Header.Set("Authorization", "Bearer gold-key")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Fatalf("%s: got %d (%s), want %d", c.path, rec.Code, strings.TrimSpace(rec.Body.String()), c.want)
		}
	}
	var resp QueryResponse
	if code := do(t, h, "POST", "/v1/sql", "bronze-key", QueryRequest{SQL: testQuery}, &resp); code != http.StatusOK || resp.Result.RowCount == 0 {
		t.Fatalf("another tenant's query after the refusals: got %d, %d rows", code, resp.Result.RowCount)
	}
}

// TestTenantsValidation covers the registry's error cases. A session
// override the engine would refuse — a negative count or budget, a
// misspelled name — is refused when the set loads, with an error naming
// the tenant and the tenants.json key (want), not ignored or left to fail
// every query the tenant sends.
func TestTenantsValidation(t *testing.T) {
	bad := func(o sql.Overrides) []Tenant {
		return []Tenant{{Name: "ok", APIKey: "k1"}, {Name: "bad", APIKey: "k2", Overrides: o}}
	}
	cases := []struct {
		name string
		list []Tenant
		want string
	}{
		{"empty", nil, ""},
		{"no key", []Tenant{{Name: "a"}}, ""},
		{"dup name", []Tenant{{Name: "a", APIKey: "k1"}, {Name: "a", APIKey: "k2"}}, ""},
		{"dup key", []Tenant{{Name: "a", APIKey: "k"}, {Name: "b", APIKey: "k"}}, ""},
		{"negative weight", []Tenant{{Name: "a", APIKey: "k", Overrides: sql.Overrides{Weight: -1}}}, ""},
		{"negative memory budget", bad(sql.Overrides{MemoryBudget: -1}), "tenant bad: memory_budget"},
		{"negative workers", bad(sql.Overrides{Workers: -2}), "tenant bad: workers"},
		{"negative chunk rows", bad(sql.Overrides{PipelineChunkRows: -512}), "tenant bad: pipeline_chunk_rows"},
		{"misspelled spill tier", bad(sql.Overrides{SpillTier: "sdd"}), "tenant bad: spill_tier"},
		{"dram spill tier", bad(sql.Overrides{SpillTier: "dram"}), "tenant bad: spill_tier"},
		{"misspelled placement", bad(sql.Overrides{Placement: "gpuu"}), "tenant bad: placement"},
		{"misspelled dist join", bad(sql.Overrides{DistJoin: "shuffle"}), "tenant bad: dist_join"},
	}
	for _, c := range cases {
		_, err := NewTenants(c.list)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
	// Every tenants.json key as deployed files spell it.
	ts, err := ParseTenants([]byte(`[{"name":"x","api_key":"xk","weight":2,"priority":"batch","workers":3,` +
		`"memory_budget":4096,"spill_tier":"nvm","placement":"auto","dist_join":"broadcast","pipeline_chunk_rows":512,` +
		`"max_inflight":5,"rate_per_sec":1.5,"burst":2}]`))
	if err != nil {
		t.Fatal(err)
	}
	want := Tenant{Name: "x", APIKey: "xk", MaxInflight: 5, RatePerSec: 1.5, Burst: 2, Overrides: sql.Overrides{
		Weight: 2, Priority: "batch", Workers: 3, MemoryBudget: 4096, SpillTier: "nvm",
		Placement: "auto", DistJoin: "broadcast", PipelineChunkRows: 512,
	}}
	if tenant, ok := ts.ByKey("xk"); !ok || *tenant != want {
		t.Fatalf("parsed tenant = %+v, want %+v", tenant, want)
	}
}

// TestServeConcurrentTenants hammers one server from many goroutines
// across both tenants (race detector coverage for the counters, cache
// and shared fabric).
func TestServeConcurrentTenants(t *testing.T) {
	srv := testServer(t, 1000)
	h := srv.Handler()
	const n = 16
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			key := "gold-key"
			if i%2 == 1 {
				key = "bronze-key"
			}
			var resp QueryResponse
			if code := do(t, h, "POST", "/v1/sql", key, QueryRequest{SQL: testQuery, Prepare: true}, &resp); code != http.StatusOK {
				errs <- fmt.Errorf("request %d: code %d", i, code)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	var m Metrics
	do(t, h, "GET", "/metrics", "", nil, &m)
	if m.QueriesServed != n {
		t.Fatalf("served = %d, want %d", m.QueriesServed, n)
	}
}
