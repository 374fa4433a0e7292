package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/relational"
	"repro/internal/sql"
)

// schemaQuery is a distributed join + GROUP BY: it moves data, builds and
// aggregates, so every optional report block has something to say.
const schemaQuery = "SELECT c.segment, s.customer_id, COUNT(*) AS n, SUM(s.price) AS v " +
	"FROM sales s JOIN customers c ON s.customer_id = c.customer_id " +
	"GROUP BY c.segment, s.customer_id ORDER BY v DESC, s.customer_id"

// scheduleDependent are omitempty keys whose presence depends on how
// goroutines met at a device's occupancy cap, not on the request.
var scheduleDependent = map[string]bool{"queue_waits": true, "queue_seconds": true}

// keyPaths flattens one JSON document into its sorted, distinct key
// paths, each with the kind of value found there: "a.b[]:number". Array
// elements share the path "[]"; object keys are taken as found, so a map
// (class_bytes) records the keys the run produced. Keys named in
// scheduleDependent are left out.
func keyPaths(t *testing.T, doc []byte) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatalf("document is not JSON: %v: %q", err, doc)
	}
	seen := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		var kind string
		switch v := v.(type) {
		case map[string]any:
			kind = "object"
			for k, e := range v {
				walk(path+"."+k, e)
			}
		case []any:
			kind = "array"
			for _, e := range v {
				walk(path+"[]", e)
			}
		case string:
			kind = "string"
		case float64:
			kind = "number"
		case bool:
			kind = "bool"
		case nil:
			kind = "null"
		}
		if !scheduleDependent[path[strings.LastIndexByte(path, '.')+1:]] {
			seen[path+":"+kind] = true
		}
	}
	walk("", v)
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// schemaEngine builds a 4-shard engine over the demo tables; fill takes
// every optional path: pipelined movement, a tight memory budget, three
// device kinds, replication 2 and a worker killed mid-shuffle.
func schemaEngine(t *testing.T, fill bool) *sql.Engine {
	t.Helper()
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 4
	if fill {
		cfg.DistJoin = "repartition"
		cfg.PipelineChunkRows = 256
		cfg.MemoryBudget = 2 << 10
		cfg.Devices = []string{"cpu", "gpu", "fpga"}
		cfg.Replication = 2
		plan, err := lifecycle.ParsePlan("kill:1@0:0.5", 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
	}
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sql.RegisterDemo(eng, 7, 4000, 100)
	return eng
}

// post sends one JSON request and returns the 200 response body.
func post(t *testing.T, h http.Handler, path, key string, body any) []byte {
	t.Helper()
	rec := rawDo(t, h, path, key, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: got %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// TestWireKeySchema pins the JSON key schema of every stats document the
// daemon writes: a /v1/sql response that fills every optional block, the
// same query on a default bulk engine (what omitempty leaves out), the
// /metrics document, a /v1/hosts drain and a subscription's end line. A
// stats field renamed, dropped, retyped or moved fails here before any
// client reads a missing key.
func TestWireKeySchema(t *testing.T) {
	docs := map[string][]byte{}

	full := New(schemaEngine(t, true), DefaultTenants(), Options{})
	h := full.Handler()
	docs["sql_full"] = post(t, h, "/v1/sql", "gold-key", QueryRequest{SQL: schemaQuery})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	docs["metrics"] = rec.Body.Bytes()
	docs["hosts_drain"] = post(t, h, "/v1/hosts", "gold-key", HostRequest{Action: "drain", Worker: 2})

	bulk := New(schemaEngine(t, false), DefaultTenants(), Options{})
	docs["sql_bulk"] = post(t, bulk.Handler(), "/v1/sql", "gold-key", QueryRequest{SQL: schemaQuery})

	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 2
	cfg.MemoryBudget = 4 << 10
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Register(relational.NewRelation("events", relational.Schema{
		{Name: "k", Type: relational.String},
		{Name: "t", Type: relational.Int},
		{Name: "v", Type: relational.Int},
	}))
	sh := New(eng, DefaultTenants(), Options{}).Handler()
	post(t, sh, "/v1/stream", "gold-key", StreamRequest{Table: "events", Rows: serveEvents(300)})
	post(t, sh, "/v1/stream", "gold-key", StreamRequest{Table: "events", Close: true})
	lines := bytes.Split(bytes.TrimSpace(post(t, sh, "/v1/stream", "gold-key", StreamRequest{
		SQL:    "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM events WHERE v > 0 GROUP BY k",
		Window: &WindowRequest{TimeCol: "t", Size: 8, Slide: 4},
	})), []byte("\n"))
	docs["stream_end"] = lines[len(lines)-1]

	var got strings.Builder
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		for _, p := range keyPaths(t, docs[name]) {
			fmt.Fprintf(&got, "%s %s\n", name, p)
		}
	}
	want, err := os.ReadFile("testdata/wire_schema.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for _, l := range wantLines {
			if !slices.Contains(gotLines, l) {
				t.Errorf("missing: %s", l)
			}
		}
		for _, l := range gotLines {
			if !slices.Contains(wantLines, l) {
				t.Errorf("unexpected: %s", l)
			}
		}
		t.Fatalf("the wire key schema moved (testdata/wire_schema.txt):\n%s", got.String())
	}
}
