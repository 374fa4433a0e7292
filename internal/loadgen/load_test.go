package loadgen

import (
	"context"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/serve"
	"repro/internal/sql"
)

// loadEngine builds the distributed engine the load tests drive (and
// an identically-configured reference for row verification).
func loadEngine(t *testing.T, rows int) *sql.Engine {
	t.Helper()
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 4
	cfg.Topology = "leafspine"
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sql.RegisterDemo(eng, 42, rows, 200)
	return eng
}

// TestLoadWeighted3to1 is the in-process acceptance run: two tenants at
// fabric weight 3:1, a gang-announced wave of concurrent sessions, and
// the weighted tenant's model p95 must come out measurably lower. Rows
// must be identical across every session and identical to direct
// library execution. (CI drives the same assertion at 1000 sessions
// through the rethink-load binary; this keeps it race-checked.)
func TestLoadWeighted3to1(t *testing.T) {
	const rows = 4000
	srv := serve.New(loadEngine(t, rows), serve.DefaultTenants(), serve.Options{})
	cfg := LoadConfig{
		Target:            Target{Handler: srv.Handler()},
		Sessions:          60,
		QueriesPerSession: 2,
		Prepare:           true,
		Gang:              true,
		Tenants: []LoadTenant{
			{Name: "gold", APIKey: "gold-key", Share: 1},
			{Name: "bronze", APIKey: "bronze-key", Share: 1},
		},
	}
	report, err := RunLoad(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalErrors != 0 {
		t.Fatalf("%d queries failed", report.TotalErrors)
	}
	if report.TotalQueries != cfg.Sessions*cfg.QueriesPerSession {
		t.Fatalf("queries = %d, want %d", report.TotalQueries, cfg.Sessions*cfg.QueriesPerSession)
	}
	gold, bronze := report.Tenants["gold"], report.Tenants["bronze"]
	if gold == nil || bronze == nil {
		t.Fatalf("missing tenant reports: %v", report.Tenants)
	}
	if gold.Sessions != 30 || bronze.Sessions != 30 {
		t.Fatalf("session split = %d/%d, want 30/30", gold.Sessions, bronze.Sessions)
	}
	// The entire first wave coexisted in one admission round: the gang
	// floor held until all sessions joined.
	adm := report.Metrics.Fabric.Admission
	if adm.PeakParties < cfg.Sessions {
		t.Fatalf("peak parties = %d, want >= %d (gang floor broke early)", adm.PeakParties, cfg.Sessions)
	}
	// Weight 3 vs 1 on the same fabric under the same contention: the
	// weighted tenant's modeled latency distribution sits lower.
	if gold.Model.P95 >= bronze.Model.P95 {
		t.Fatalf("weighted tenant not faster: gold model p95 %.3fms vs bronze %.3fms",
			gold.Model.P95, bronze.Model.P95)
	}
	if gold.Model.P50 >= bronze.Model.P50 {
		t.Fatalf("weighted tenant not faster at the median: gold %.3fms vs bronze %.3fms",
			gold.Model.P50, bronze.Model.P50)
	}
	// Every distinct statement produced one fingerprint across all
	// sessions (RunLoad errors on divergence) and those rows match
	// direct library execution on a fresh engine with the same catalog.
	if len(report.Fingerprints) != len(DefaultLoadQueries) {
		t.Fatalf("fingerprints for %d statements, want %d", len(report.Fingerprints), len(DefaultLoadQueries))
	}
	if err := VerifyAgainstEngine(report, loadEngine(t, rows)); err != nil {
		t.Fatal(err)
	}
	// Prepared statements hit the plan cache. The whole first wave can
	// race past an empty cache before any priming Put lands, so the
	// miss count is not exact — but every query went through the cache,
	// only 6 (tenant, statement) keys exist, and a healthy share of the
	// run must be hits.
	pc := report.Metrics.PlanCache
	if pc.Hits+pc.Misses != uint64(report.TotalQueries) {
		t.Fatalf("plan cache hits+misses = %d+%d, want %d lookups", pc.Hits, pc.Misses, report.TotalQueries)
	}
	if pc.Entries != len(DefaultLoadQueries)*2 {
		t.Fatalf("plan cache entries = %d, want %d", pc.Entries, len(DefaultLoadQueries)*2)
	}
	if pc.Hits < uint64(report.TotalQueries)/4 {
		t.Fatalf("plan cache hits = %d of %d queries — cache not being used", pc.Hits, report.TotalQueries)
	}
	// Both tenants moved bytes over the fabric, attributed to their QoS
	// classes.
	if gold.NetBytes <= 0 || bronze.NetBytes <= 0 {
		t.Fatalf("net breakdowns missing: gold %v, bronze %v", gold.NetBytes, bronze.NetBytes)
	}
	if adm.ClassBytes["interactive"] <= 0 || adm.ClassBytes[""] <= 0 {
		t.Fatalf("per-class byte attribution missing: %v", adm.ClassBytes)
	}
	if report.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestLoadSessionDealing: shares deal sessions proportionally.
func TestLoadSessionDealing(t *testing.T) {
	srv := serve.New(loadEngine(t, 200), serve.DefaultTenants(), serve.Options{})
	report, err := RunLoad(context.Background(), LoadConfig{
		Target:   Target{Handler: srv.Handler()},
		Sessions: 8,
		Queries:  []string{"SELECT COUNT(*) AS n FROM customers"},
		Tenants: []LoadTenant{
			{Name: "gold", APIKey: "gold-key", Share: 3},
			{Name: "bronze", APIKey: "bronze-key", Share: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Tenants["gold"].Sessions != 6 || report.Tenants["bronze"].Sessions != 2 {
		t.Fatalf("3:1 share dealt %d/%d sessions, want 6/2",
			report.Tenants["gold"].Sessions, report.Tenants["bronze"].Sessions)
	}
}

// TestLoadConfigValidation: bad configs fail fast.
func TestLoadConfigValidation(t *testing.T) {
	if _, err := RunLoad(context.Background(), LoadConfig{Sessions: 0}); err == nil {
		t.Fatal("Sessions 0 accepted")
	}
	if _, err := RunLoad(context.Background(), LoadConfig{Sessions: 1}); err == nil {
		t.Fatal("no tenants accepted")
	}
	if _, err := RunLoad(context.Background(), LoadConfig{Sessions: 1, Tenants: []LoadTenant{{Name: "x", APIKey: "k"}}}); err == nil {
		t.Fatal("no target accepted")
	}
}

// TestLoadErrorsCounted: a tenant with a bad key produces per-tenant
// errors, not a harness crash.
func TestLoadErrorsCounted(t *testing.T) {
	srv := serve.New(loadEngine(t, 200), serve.DefaultTenants(), serve.Options{})
	report, err := RunLoad(context.Background(), LoadConfig{
		Target:   Target{Handler: srv.Handler()},
		Sessions: 4,
		Queries:  []string{"SELECT COUNT(*) AS n FROM customers"},
		Tenants: []LoadTenant{
			{Name: "gold", APIKey: "gold-key", Share: 1},
			{Name: "intruder", APIKey: "wrong-key", Share: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Tenants["intruder"].Errors != 2 || report.TotalErrors != 2 {
		t.Fatalf("intruder errors = %d (total %d), want 2", report.Tenants["intruder"].Errors, report.TotalErrors)
	}
	if report.Tenants["gold"].Queries != 2 {
		t.Fatalf("gold queries = %d, want 2", report.Tenants["gold"].Queries)
	}
}

// TestLoadLeavesCallerTenants: a zero share reads as 1 without writing
// back into the caller's tenant list.
func TestLoadLeavesCallerTenants(t *testing.T) {
	srv := serve.New(loadEngine(t, 200), serve.DefaultTenants(), serve.Options{})
	tenants := []LoadTenant{
		{Name: "gold", APIKey: "gold-key"},
		{Name: "bronze", APIKey: "bronze-key", Share: 1},
	}
	want := slices.Clone(tenants)
	report, err := RunLoad(context.Background(), LoadConfig{
		Target:   Target{Handler: srv.Handler()},
		Sessions: 4,
		Queries:  []string{"SELECT COUNT(*) AS n FROM customers"},
		Tenants:  tenants,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tenants, want) {
		t.Fatalf("RunLoad rewrote the caller's tenants: %+v, want %+v", tenants, want)
	}
	if report.Tenants["gold"].Sessions != 2 || report.Tenants["bronze"].Sessions != 2 {
		t.Fatalf("share 0 dealt %d/%d sessions, want 2/2",
			report.Tenants["gold"].Sessions, report.Tenants["bronze"].Sessions)
	}
}

// TestLoadOverSocket: a gang-announced run against a daemon on a real
// loopback listener, its rows verified against direct execution.
func TestLoadOverSocket(t *testing.T) {
	const rows = 2000
	ts := httptest.NewServer(serve.New(loadEngine(t, rows), serve.DefaultTenants(), serve.Options{}).Handler())
	defer ts.Close()
	report, err := RunLoad(context.Background(), LoadConfig{
		Target:            Target{BaseURL: ts.URL + "/"},
		Sessions:          8,
		QueriesPerSession: 2,
		Prepare:           true,
		Gang:              true,
		Tenants: []LoadTenant{
			{Name: "gold", APIKey: "gold-key", Share: 1},
			{Name: "bronze", APIKey: "bronze-key", Share: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalErrors != 0 || report.TotalQueries != 16 || report.Target != ts.URL {
		t.Fatalf("report: %d ok, %d errors against %s", report.TotalQueries, report.TotalErrors, report.Target)
	}
	if report.Metrics == nil || report.Metrics.Fabric.Admission.PeakParties < 8 {
		t.Fatalf("gang wave did not coexist in one round: %+v", report.Metrics)
	}
	if len(report.Fingerprints) != len(DefaultLoadQueries) {
		t.Fatalf("fingerprints for %d statements, want %d", len(report.Fingerprints), len(DefaultLoadQueries))
	}
	if err := VerifyAgainstEngine(report, loadEngine(t, rows)); err != nil {
		t.Fatal(err)
	}
}
