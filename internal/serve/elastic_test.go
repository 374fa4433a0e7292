package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relational"
	"repro/internal/sql"
)

// TestServeThrottleMaxInflight: a tenant at its max_inflight cap gets
// 429 with a Retry-After hint before the body is read, the refusal is
// counted, and capacity frees as soon as the in-flight query finishes.
func TestServeThrottleMaxInflight(t *testing.T) {
	eng := testEngine(t, 500)
	tenants, err := NewTenants([]Tenant{
		{Name: "capped", APIKey: "capped-key", MaxInflight: 1},
		{Name: "free", APIKey: "free-key"},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, tenants, Options{})
	h := srv.Handler()

	// Park one capped query at the fabric's admission barrier: announce a
	// gang of 2, submit one — it waits for a peer, holding the tenant's
	// single inflight slot.
	if code := do(t, h, "POST", "/v1/gang", "capped-key", GangRequest{Announce: 2}, nil); code != http.StatusOK {
		t.Fatalf("gang announce: %d", code)
	}
	firstDone := make(chan int, 1)
	go func() {
		var buf bytes.Buffer
		_ = json.NewEncoder(&buf).Encode(QueryRequest{SQL: testQuery})
		req := httptest.NewRequest("POST", "/v1/sql", &buf)
		req.Header.Set("X-API-Key", "capped-key")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		firstDone <- rec.Code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.MetricsSnapshot().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first query never entered flight")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Second capped submission: refused, with the retry hint.
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(QueryRequest{SQL: testQuery})
	req := httptest.NewRequest("POST", "/v1/sql", &buf)
	req.Header.Set("X-API-Key", "capped-key")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-cap submission: got %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}

	// An uncapped tenant is unaffected — and fills the gang, releasing
	// the parked query.
	if code := do(t, h, "POST", "/v1/sql", "free-key", QueryRequest{SQL: testQuery}, nil); code != http.StatusOK {
		t.Fatalf("uncapped tenant: got %d, want 200", code)
	}
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("parked query: got %d, want 200", code)
	}

	m := srv.MetricsSnapshot()
	if m.Tenants["capped"].Throttled != 1 {
		t.Fatalf("throttled counter = %d, want 1", m.Tenants["capped"].Throttled)
	}
	// Capacity is back: the capped tenant runs again.
	if code := do(t, h, "POST", "/v1/sql", "capped-key", QueryRequest{SQL: testQuery}, nil); code != http.StatusOK {
		t.Fatalf("post-release submission: got %d, want 200", code)
	}
}

// elasticServer fronts a 4-shard engine at the given replication factor.
func elasticServer(t *testing.T, replication int) *Server {
	t.Helper()
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 4
	cfg.Replication = replication
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sql.RegisterDemo(eng, 42, 500, 50)
	return New(eng, DefaultTenants(), Options{})
}

// TestServeHostsEndpoint: failure modes first — a single-node daemon has
// no hosts (422, no cluster block in /metrics), bad actions, unknown
// workers, missing keys — then drain, restore and join through the wire
// on every distributed daemon, replicated or not, with cluster health in
// every response and in /metrics.
func TestServeHostsEndpoint(t *testing.T) {
	single, err := sql.NewEngine(sql.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plain := New(single, DefaultTenants(), Options{})
	for _, action := range []string{"drain", "restore", "join"} {
		if code := do(t, plain.Handler(), "POST", "/v1/hosts", "gold-key", HostRequest{Action: action}, nil); code != http.StatusUnprocessableEntity {
			t.Fatalf("single-node %s: got %d, want 422", action, code)
		}
	}
	if m := plain.MetricsSnapshot(); m.Cluster != nil || m.Fabric != nil {
		t.Fatalf("single-node metrics grew a cluster: %+v %+v", m.Cluster, m.Fabric)
	}

	for _, replication := range []int{0, 2} {
		srv := elasticServer(t, replication)
		h := srv.Handler()
		if code := do(t, h, "POST", "/v1/hosts", "gold-key", HostRequest{Action: "explode"}, nil); code != http.StatusBadRequest {
			t.Fatalf("bad action: got %d, want 400", code)
		}
		if code := do(t, h, "POST", "/v1/hosts", "", HostRequest{Action: "join"}, nil); code != http.StatusUnauthorized {
			t.Fatalf("unauthenticated: got %d, want 401", code)
		}
		if code := do(t, h, "POST", "/v1/hosts", "gold-key", HostRequest{Action: "drain", Worker: 9}, nil); code != http.StatusUnprocessableEntity {
			t.Fatalf("unknown worker: got %d, want 422", code)
		}
		// Shard the tables so the drain has resident bytes to move.
		if code := do(t, h, "POST", "/v1/sql", "gold-key", QueryRequest{SQL: testQuery}, nil); code != http.StatusOK {
			t.Fatalf("warm-up query: %d", code)
		}

		var resp HostResponse
		if code := do(t, h, "POST", "/v1/hosts", "gold-key", HostRequest{Action: "drain", Worker: 1}, &resp); code != http.StatusOK {
			t.Fatalf("replication %d drain: %d", replication, code)
		}
		if resp.Cluster == nil || resp.Cluster.Drained != 1 || resp.Cluster.RebalancedBytes <= 0 {
			t.Fatalf("replication %d drain response: %+v", replication, resp.Cluster)
		}
		if code := do(t, h, "POST", "/v1/hosts", "gold-key", HostRequest{Action: "restore", Worker: 1}, &resp); code != http.StatusOK {
			t.Fatalf("restore: %d", code)
		}
		if resp.Cluster.Drained != 0 {
			t.Fatalf("restore response: %+v", resp.Cluster)
		}
		if code := do(t, h, "POST", "/v1/hosts", "gold-key", HostRequest{Action: "join"}, &resp); code != http.StatusOK {
			t.Fatalf("join: %d", code)
		}
		if resp.Worker != 4 || resp.Cluster.Workers != 5 {
			t.Fatalf("join response: worker %d, %+v", resp.Worker, resp.Cluster)
		}
		// Queries still work on the reshaped cluster, and /metrics reports it.
		if code := do(t, h, "POST", "/v1/sql", "gold-key", QueryRequest{SQL: testQuery}, nil); code != http.StatusOK {
			t.Fatalf("post-reshape query: %d", code)
		}
		m := srv.MetricsSnapshot()
		if m.Cluster == nil || m.Cluster.Replication != max(replication, 1) || m.Cluster.Workers != 5 {
			t.Fatalf("metrics cluster: %+v", m.Cluster)
		}
	}
}

// TestServeRegisterRaceFreshPlans races catalog Registers against
// prepared-statement cache hits: a reader must never get rows older
// than the last Register that completed before its request started.
// Run with -race; the assertion catches logically stale plans, the
// detector catches unsynchronized epoch/cache access.
func TestServeRegisterRaceFreshPlans(t *testing.T) {
	cfg := sql.DefaultConfig()
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema := relational.Schema{{Name: "ver", Type: relational.Int}}
	version := func(v int64) *relational.Relation {
		rel := relational.NewRelation("v", schema)
		if err := rel.Append(relational.Row{relational.IntV(v)}); err != nil {
			t.Fatal(err)
		}
		return rel
	}
	eng.Register(version(0))
	srv := New(eng, DefaultTenants(), Options{})
	h := srv.Handler()

	var registered atomic.Int64
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for v := int64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			eng.Register(version(v))
			registered.Store(v)
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				floor := registered.Load()
				var resp QueryResponse
				var buf bytes.Buffer
				_ = json.NewEncoder(&buf).Encode(QueryRequest{SQL: "SELECT ver FROM v", Prepare: true})
				req := httptest.NewRequest("POST", "/v1/sql", &buf)
				req.Header.Set("X-API-Key", "gold-key")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("query %d: code %d: %s", i, rec.Code, rec.Body.String())
					return
				}
				if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
					t.Error(err)
					return
				}
				got := int64(resp.Result.Rows[0][0].(float64))
				if got < floor {
					t.Errorf("stale plan served: ver %d, but %d was registered before the request", got, floor)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if t.Failed() {
		t.Logf("plan cache at failure: %+v", srv.MetricsSnapshot().PlanCache)
	}
}
