package serve

import (
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relational"
	"repro/internal/serve/wire"
	"repro/internal/sql"
)

// registerScores installs (or replaces) a small relation whose contents
// encode a version marker, so a stale cached plan is detectable in the
// served rows, not just in counters.
func registerScores(eng *sql.Engine, version int64) {
	rel := relational.NewRelation("scores", relational.Schema{
		{Name: "id", Type: relational.Int},
		{Name: "v", Type: relational.Int},
	})
	for i := int64(0); i < 4; i++ {
		_ = rel.Append(relational.Row{relational.IntV(i), relational.IntV(version)})
	}
	eng.Register(rel)
}

// TestPlanCacheEpochRegression is the ISSUE-mandated staleness
// regression: a cached prepared statement must NOT be served after
// Register replaces a relation. The replacement bumps the engine's
// catalog epoch; the next prepared submission must be an epoch
// invalidation (miss), and its rows must reflect the new catalog.
func TestPlanCacheEpochRegression(t *testing.T) {
	eng := testEngine(t, 0)
	registerScores(eng, 1)
	srv := New(eng, DefaultTenants(), Options{})
	h := srv.Handler()
	const q = "SELECT SUM(v) AS total FROM scores"

	run := func() (QueryResponse, int) {
		var resp QueryResponse
		code := do(t, h, "POST", "/v1/sql", "gold-key", QueryRequest{SQL: q, Prepare: true}, &resp)
		return resp, code
	}

	// Prime: miss, then hit.
	r1, code := run()
	if code != http.StatusOK || r1.CacheHit {
		t.Fatalf("prime: code %d, hit %v (want 200, miss)", code, r1.CacheHit)
	}
	r2, _ := run()
	if !r2.CacheHit {
		t.Fatal("repeat without Register: want cache hit")
	}
	if total := r2.Result.Rows[0][0].(float64); total != 4 {
		// JSON numbers decode as float64; SUM over int stays int64-exact.
		t.Fatalf("v1 total = %v, want 4", total)
	}

	// Replace the relation: epoch moves, cached plan must not be served.
	registerScores(eng, 100)
	r3, _ := run()
	if r3.CacheHit {
		t.Fatal("after Register: cached plan served (staleness regression)")
	}
	if r3.CatalogEpoch != r2.CatalogEpoch+1 {
		t.Fatalf("epoch = %d after Register, want %d", r3.CatalogEpoch, r2.CatalogEpoch+1)
	}
	if total := r3.Result.Rows[0][0].(float64); total != 400 {
		t.Fatalf("post-replace total = %v, want 400 (stale rows served?)", total)
	}
	st := srv.cache.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", st.Hits, st.Misses)
	}

	// And the re-prepared plan is cached again under the new epoch.
	r4, _ := run()
	if !r4.CacheHit {
		t.Fatal("repeat after re-prepare: want cache hit")
	}
}

// TestPlanCacheKeying: same statement under different tenants or
// different session configs never shares an entry.
func TestPlanCacheKeying(t *testing.T) {
	c := NewPlanCache(8)
	gold := &Tenant{Name: "gold", APIKey: "g", Overrides: sql.Overrides{Priority: "interactive", Weight: 3}}
	bronze := &Tenant{Name: "bronze", APIKey: "b", Overrides: sql.Overrides{Weight: 1}}
	const q = "SELECT 1"
	if c.Key(gold, q) == c.Key(bronze, q) {
		t.Fatal("distinct tenants share a cache key")
	}
	retuned := *gold
	retuned.Workers = 2
	if c.Key(gold, q) == c.Key(&retuned, q) {
		t.Fatal("distinct session configs share a cache key")
	}
	if c.Key(gold, q) == c.Key(gold, "SELECT 2") {
		t.Fatal("distinct statements share a cache key")
	}
}

// TestPlanCacheKeyCoversEveryOverride: two tenants differing in any single
// session override never share a plan-cache key, the tenant's session
// carries that override, and tenants.json spells it by the field's JSON
// tag. The fields are walked by reflection, so a ninth override is covered
// the day it is added to sql.Overrides.
func TestPlanCacheKeyCoversEveryOverride(t *testing.T) {
	c := NewPlanCache(8)
	const q = "SELECT 1"
	base := Tenant{Name: "t", APIKey: "k"}
	eng := testEngine(t, 10)
	typ := reflect.TypeOf(base.Overrides)
	if typ.NumField() < 8 {
		t.Fatalf("sql.Overrides lost fields: %d", typ.NumField())
	}
	// Names the engine validates must be real ones to parse.
	valid := map[string]string{"dist_join": "broadcast", "placement": "auto", "spill_tier": "nvm"}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		tuned := base
		v := reflect.ValueOf(&tuned.Overrides).Elem().Field(i)
		var lit string
		switch v.Kind() {
		case reflect.String:
			str, ok := valid[key]
			if !ok {
				str = "x"
			}
			v.SetString(str)
			lit = `"` + str + `"`
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
			lit = "7"
		case reflect.Float64:
			v.SetFloat(2.5)
			lit = "2.5"
		default:
			t.Fatalf("override %s has kind %s: teach this test to set it", f.Name, v.Kind())
		}
		if c.Key(&base, q) == c.Key(&tuned, q) {
			t.Errorf("tenants differing only in %s share a plan-cache key", f.Name)
		}
		if got := tuned.Session(eng).Overrides; got != tuned.Overrides {
			t.Errorf("%s: session carries %+v, tenant configured %+v", f.Name, got, tuned.Overrides)
		}
		ts, err := ParseTenants([]byte(`[{"name":"t","api_key":"k","` + key + `":` + lit + `}]`))
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if parsed, _ := ts.ByName("t"); parsed.Overrides != tuned.Overrides {
			t.Errorf("tenants.json key %q parsed to %+v, want %+v", key, parsed.Overrides, tuned.Overrides)
		}
	}
}

// TestPlanCacheLRU: capacity bounds hold and eviction is
// least-recently-used.
func TestPlanCacheLRU(t *testing.T) {
	eng := testEngine(t, 100)
	sess := eng.Session()
	stmt, err := sess.Prepare("SELECT COUNT(*) AS n FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	c := NewPlanCache(2)
	c.Put("a", stmt, 1)
	c.Put("b", stmt, 1)
	if _, ok := c.Get("a", 1); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", stmt, 1)
	if _, ok := c.Get("b", 1); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a", 1); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("entries/evictions = %d/%d, want 2/1", st.Entries, st.Evictions)
	}
}

// TestPlanCacheEpochMismatchCounts: a direct Get under a newer epoch
// removes the entry and counts invalidation + miss.
func TestPlanCacheEpochMismatchCounts(t *testing.T) {
	eng := testEngine(t, 100)
	stmt, err := eng.Session().Prepare("SELECT COUNT(*) AS n FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	c := NewPlanCache(4)
	c.Put("k", stmt, 7)
	if _, ok := c.Get("k", 8); ok {
		t.Fatal("stale-epoch entry served")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Entry is gone, so a retry at the old epoch is a plain miss.
	if _, ok := c.Get("k", 7); ok {
		t.Fatal("removed entry resurrected")
	}
}

// TestStmtBindIsolation: one cached statement executed from two
// different sessions carries each session's QoS, proving Bind shares
// only the parsed form.
func TestStmtBindIsolation(t *testing.T) {
	eng := testEngine(t, 500)
	base, err := eng.Session().Prepare(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	gold, _ := DefaultTenants().ByName("gold")
	bronze, _ := DefaultTenants().ByName("bronze")
	rg, err := base.Bind(gold.Session(eng)).Exec(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := base.Bind(bronze.Session(eng)).Exec(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if rg.Admission == nil || rg.Admission.Class != "interactive" || rg.Admission.Weight != 3 {
		t.Fatalf("gold exec admission = %+v", rg.Admission)
	}
	if rb.Admission == nil || rb.Admission.Weight != 1 {
		t.Fatalf("bronze exec admission = %+v", rb.Admission)
	}
	if wire.Fingerprint(wire.FromResult(rg)) != wire.Fingerprint(wire.FromResult(rb)) {
		t.Fatal("same statement, different rows across sessions")
	}
}
