package sql

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/relational"
	"repro/internal/workload"
)

// Concurrency acceptance suite: N sessions executing at the same time on
// one Engine must charge their movements as coexisting flows on the one
// shared network simulator, so per-query simulated network time degrades
// under contention while results stay row-for-row identical to
// single-node execution.

// concTestConfig is the distributed config the contention tests share:
// the single-switch fabric has exactly one path per host pair, so round
// outcomes do not depend on which goroutine registered first.
func concTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 4
	cfg.Topology = "single"
	return cfg
}

// productsRelation is a third demo table so one test query can carry two
// join (shuffle) phases while the other carries one — anti-aligned
// phases are what let contention overlap a worker-link phase with a
// coordinator-link phase.
func productsRelation() *relational.Relation {
	rel := relational.NewRelation("products", relational.Schema{
		{Name: "product", Type: relational.String},
		{Name: "margin", Type: relational.Float},
	})
	for i, p := range workload.Products {
		rel.MustAppend(relational.Row{relational.StringV(p), relational.FloatV(0.1 + 0.05*float64(i))})
	}
	return rel
}

func concEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(concTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(eng, 31, 6000, 150)
	eng.Register(productsRelation())
	return eng
}

const (
	// concQueryA: two repartition shuffles then a wide gather.
	concQueryA = "SELECT s.order_id, s.price, c.segment, p.margin FROM sales s JOIN customers c ON s.customer_id = c.customer_id JOIN products p ON s.product = p.product"
	// concQueryB: one repartition shuffle then a narrow gather. The
	// narrow output keeps B's coordinator-link duty cycle moderate in
	// isolation, so the contended busiest link (the worker uplinks, kept
	// busy by A's extra shuffle while B gathers) clearly exceeds it.
	concQueryB = "SELECT s.order_id FROM sales s JOIN customers c ON s.customer_id = c.customer_id"
)

// sessionFor opens a session with the movement strategy override the
// query relies on.
func sessionFor(eng *Engine, distJoin string) *Session {
	s := eng.Session()
	s.DistJoin = distJoin
	return s
}

// runIsolated executes one query alone on a fresh engine and returns its
// per-query and fabric-aggregate stats.
func runIsolated(t *testing.T, q, distJoin string) (*Result, *dist.FabricStats) {
	t.Helper()
	eng := concEngine(t)
	res, err := sessionFor(eng, distJoin).Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Net == nil {
		t.Fatal("distributed result missing net stats")
	}
	return res, eng.Fabric().Stats()
}

// expectRowsEqual compares two relations row-for-row with the same
// relative float tolerance as the parity suite (partial sums merge in
// different orders across engines).
func expectRowsEqual(t *testing.T, label string, want, got *relational.Relation) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d rows vs %d", label, want.Len(), got.Len())
	}
	wantRows, gotRows := want.RowView(), got.RowView()
	for i := range wantRows {
		for j := range wantRows[i] {
			a, b := wantRows[i][j], gotRows[i][j]
			diff := a.F - b.F
			if diff < 0 {
				diff = -diff
			}
			tol := 1e-9
			if mag := a.F; mag > 1 || mag < -1 {
				if mag < 0 {
					mag = -mag
				}
				tol *= mag
			}
			if a.I != b.I || a.S != b.S || diff > tol {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, j, a, b)
			}
		}
	}
}

// TestConcurrentSessionsShareFabric is the core contention acceptance
// test: two sessions running simultaneously on one engine share a single
// netsim, their flows coexist (the fabric aggregate shows both queries
// in one admission round and a max link utilization above either
// isolated run), per-query net time is strictly higher than isolated,
// and results stay identical to single-node execution.
func TestConcurrentSessionsShareFabric(t *testing.T) {
	// Single-node reference results.
	refEng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(refEng, 31, 6000, 150)
	refEng.Register(productsRelation())
	refA, err := refEng.Session().Query(context.Background(), concQueryA)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := refEng.Session().Query(context.Background(), concQueryB)
	if err != nil {
		t.Fatal(err)
	}

	// Isolated distributed runs, each on its own fresh engine/fabric.
	isoA, fabA := runIsolated(t, concQueryA, "repartition")
	isoB, fabB := runIsolated(t, concQueryB, "repartition")
	expectRowsEqual(t, "isolated A vs single-node", refA.Rows, isoA.Rows)
	expectRowsEqual(t, "isolated B vs single-node", refB.Rows, isoB.Rows)
	if fabA.PeakQueries != 1 || fabB.PeakQueries != 1 {
		t.Fatalf("isolated runs must not contend: peaks %d, %d", fabA.PeakQueries, fabB.PeakQueries)
	}

	// Concurrent run: both sessions on ONE engine, with an admission
	// barrier guaranteeing their first phases share a round regardless of
	// goroutine interleaving.
	eng := concEngine(t)
	eng.Fabric().Expect(2)
	var wg sync.WaitGroup
	var conA, conB *Result
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		conA, errA = sessionFor(eng, "repartition").Query(context.Background(), concQueryA)
	}()
	go func() {
		defer wg.Done()
		conB, errB = sessionFor(eng, "repartition").Query(context.Background(), concQueryB)
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("concurrent queries failed: %v / %v", errA, errB)
	}

	// Results remain identical to single-node execution under contention.
	expectRowsEqual(t, "contended A vs single-node", refA.Rows, conA.Rows)
	expectRowsEqual(t, "contended B vs single-node", refB.Rows, conB.Rows)

	// Flows coexisted: at least one admission round carried both queries,
	// and more flows than either query ever fields alone.
	fab := eng.Fabric().Stats()
	if fab.PeakQueries < 2 {
		t.Fatalf("expected a round with both queries, got peak %d (rounds %d)", fab.PeakQueries, fab.Rounds)
	}
	if fab.PeakFlows <= fabA.PeakFlows || fab.PeakFlows <= fabB.PeakFlows {
		t.Fatalf("expected coexisting flows: contended peak %d vs isolated %d / %d",
			fab.PeakFlows, fabA.PeakFlows, fabB.PeakFlows)
	}

	// Aggregate hot-spot utilization exceeds either isolated run: shared
	// rounds keep the busiest link busy during windows it would idle
	// through in isolation.
	if fab.MaxLinkUtil <= fabA.MaxLinkUtil || fab.MaxLinkUtil <= fabB.MaxLinkUtil {
		t.Fatalf("contended max link util %.4f must exceed isolated %.4f / %.4f",
			fab.MaxLinkUtil, fabA.MaxLinkUtil, fabB.MaxLinkUtil)
	}

	// Per-query simulated net time strictly degrades under contention.
	if conA.Net.NetSeconds <= isoA.Net.NetSeconds {
		t.Fatalf("query A net time must degrade under contention: %.6fs vs isolated %.6fs",
			conA.Net.NetSeconds, isoA.Net.NetSeconds)
	}
	if conB.Net.NetSeconds <= isoB.Net.NetSeconds {
		t.Fatalf("query B net time must degrade under contention: %.6fs vs isolated %.6fs",
			conB.Net.NetSeconds, isoB.Net.NetSeconds)
	}
}

// TestConcurrentManySessions floods one engine with more sessions than
// shards: all results must stay correct and the fabric must report
// multi-query rounds. This is the race-detector workout for the shared
// planner caches, catalog and admission layer.
func TestConcurrentManySessions(t *testing.T) {
	eng := concEngine(t)
	ref, err := sessionFor(concEngine(t), "").Query(context.Background(), concQueryB)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	eng.Fabric().Expect(n)
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Session().Query(context.Background(), concQueryB)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		expectRowsEqual(t, "flood session", ref.Rows, results[i].Rows)
	}
	fab := eng.Fabric().Stats()
	if fab.PeakQueries < 2 {
		t.Fatalf("expected contending rounds, peak queries %d", fab.PeakQueries)
	}
}

// TestSequentialSharedFabricStaysRepeatable: reusing one engine's fabric
// across back-to-back queries must not perturb their accounting — the
// per-round clock reset and per-query ECMP seeds make run k identical to
// run 1.
func TestSequentialSharedFabricStaysRepeatable(t *testing.T) {
	eng := concEngine(t)
	sess := eng.Session()
	var first *dist.QueryStats
	for i := 0; i < 3; i++ {
		res, err := sess.Query(context.Background(), concQueryB)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Net
			continue
		}
		if res.Net.NetSeconds != first.NetSeconds || res.Net.BytesShuffled != first.BytesShuffled {
			t.Fatalf("run %d diverged: (%v, %v) vs (%v, %v)", i,
				res.Net.NetSeconds, res.Net.BytesShuffled, first.NetSeconds, first.BytesShuffled)
		}
	}
}
