package sql

import (
	"strings"
	"testing"

	"repro/internal/relational"
)

// distDB returns a demoDB configured for distributed execution.
func distDB(seed uint64, rows, customers, shards int, hash bool) *testDB {
	db := demoDB(seed, rows, customers)
	db.Opt.Distributed = true
	db.Opt.Shards = shards
	if hash {
		db.PlaceFirstInt()
	}
	return db
}

// TestDistributedMatchesSingleNode is the determinism proof for the
// distributed engine: every parity query must produce row-for-row
// identical output to the serial row engine across shard counts 1/2/8
// under both range and hash table sharding.
func TestDistributedMatchesSingleNode(t *testing.T) {
	serialDB := demoDB(7, 5000, 120)
	for _, hash := range []bool{false, true} {
		for _, shards := range []int{1, 2, 8} {
			db := distDB(7, 5000, 120, shards, hash)
			for _, q := range parityQueries {
				runBoth(t, serialDB, db, q)
			}
		}
	}
}

// TestDistributedJoinStrategies pins parity under both forced join
// movements — broadcast and hash repartition — for every join query.
func TestDistributedJoinStrategies(t *testing.T) {
	serialDB := demoDB(7, 4000, 100)
	joinQueries := []string{
		"SELECT COUNT(*) AS n FROM sales s JOIN customers c ON s.customer_id = c.customer_id",
		"SELECT c.segment, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY net DESC",
		"SELECT s.order_id, c.name FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2014 ORDER BY s.order_id LIMIT 25",
		"SELECT s.order_id, c.name FROM sales s JOIN customers c ON s.customer_id = c.customer_id LIMIT 40",
	}
	for _, strat := range []string{"broadcast", "repartition"} {
		for _, shards := range []int{2, 8} {
			db := distDB(7, 4000, 100, shards, false)
			db.Opt.DistJoin = strat
			for _, q := range joinQueries {
				runBoth(t, serialDB, db, q)
			}
		}
	}
}

// skewDB builds a catalog whose fact table concentrates ~half its rows
// on one join/group key, so hash repartitioning piles them on one shard.
func skewDB() *testDB {
	facts := relational.NewRelation("facts", relational.Schema{
		{Name: "id", Type: relational.Int},
		{Name: "key", Type: relational.Int},
		{Name: "val", Type: relational.Float},
	})
	dims := relational.NewRelation("dims", relational.Schema{
		{Name: "key", Type: relational.Int},
		{Name: "label", Type: relational.String},
	})
	for i := 0; i < 2000; i++ {
		k := int64(0) // hot key
		if i%2 == 1 {
			k = int64(i % 37)
		}
		facts.MustAppend(relational.Row{
			relational.IntV(int64(i)), relational.IntV(k), relational.FloatV(float64(i%97) / 3),
		})
	}
	for k := 0; k < 37; k++ {
		dims.MustAppend(relational.Row{relational.IntV(int64(k)), relational.StringV(strings.Repeat("x", k%5+1))})
	}
	db := newTestDB()
	db.Register(facts)
	db.Register(dims)
	return db
}

// TestDistributedSkewedKeys: a hot key must not perturb results under
// either sharding strategy or join movement.
func TestDistributedSkewedKeys(t *testing.T) {
	queries := []string{
		"SELECT key, COUNT(*) AS n, SUM(val) AS total FROM facts GROUP BY key ORDER BY n DESC, key",
		"SELECT d.label, COUNT(*) AS n FROM facts f JOIN dims d ON f.key = d.key GROUP BY d.label ORDER BY n DESC, d.label",
		"SELECT f.id FROM facts f JOIN dims d ON f.key = d.key WHERE f.val > 10.0 ORDER BY f.id LIMIT 50",
	}
	serial := skewDB()
	serial.Opt.Parallel = false
	for _, hash := range []bool{false, true} {
		for _, strat := range []string{"broadcast", "repartition"} {
			db := skewDB()
			db.Opt.Distributed = true
			db.Opt.Shards = 8
			if hash {
				db.PlaceFirstInt()
			}
			db.Opt.DistJoin = strat
			for _, q := range queries {
				runBoth(t, serial, db, q)
			}
		}
	}
}

// TestDistributedEmptyShards: tables smaller than the shard count leave
// shards empty; results must not change.
func TestDistributedEmptyShards(t *testing.T) {
	serialDB := demoDB(11, 5, 3)
	for _, hash := range []bool{false, true} {
		db := distDB(11, 5, 3, 8, hash)
		for _, q := range parityQueries {
			runBoth(t, serialDB, db, q)
		}
	}
}

// TestDistributedEmptyTables pins the zero-row edge case.
func TestDistributedEmptyTables(t *testing.T) {
	serialDB := emptyDemoDB()
	db := emptyDemoDB()
	db.Opt.Distributed = true
	db.Opt.Shards = 4
	for _, q := range parityQueries {
		runBoth(t, serialDB, db, q)
	}
}

// TestDistributedThreeTableJoin exercises the re-sequencing path: a
// second join moves a stream whose seq tags were duplicated by the
// first join's fan-out.
func TestDistributedThreeTableJoin(t *testing.T) {
	build := func() *testDB {
		a := relational.NewRelation("a", relational.Schema{
			{Name: "ak", Type: relational.Int}, {Name: "av", Type: relational.Int},
		})
		b := relational.NewRelation("b", relational.Schema{
			{Name: "bk", Type: relational.Int}, {Name: "bv", Type: relational.Int},
		})
		c := relational.NewRelation("c", relational.Schema{
			{Name: "ck", Type: relational.Int}, {Name: "cv", Type: relational.Int},
		})
		for i := 0; i < 400; i++ {
			a.MustAppend(relational.Row{relational.IntV(int64(i % 23)), relational.IntV(int64(i))})
		}
		for i := 0; i < 120; i++ { // duplicate keys: join fan-out
			b.MustAppend(relational.Row{relational.IntV(int64(i % 23)), relational.IntV(int64(i % 7))})
		}
		for i := 0; i < 7; i++ {
			c.MustAppend(relational.Row{relational.IntV(int64(i)), relational.IntV(int64(i * 100))})
		}
		db := newTestDB()
		db.Register(a)
		db.Register(b)
		db.Register(c)
		return db
	}
	queries := []string{
		"SELECT a.av, b.bv, c.cv FROM a JOIN b ON a.ak = b.bk JOIN c ON b.bv = c.ck",
		"SELECT c.ck, COUNT(*) AS n, SUM(a.av) AS tot FROM a JOIN b ON a.ak = b.bk JOIN c ON b.bv = c.ck GROUP BY c.ck ORDER BY n DESC, c.ck",
	}
	serial := build()
	serial.Opt.Parallel = false
	for _, strat := range []string{"auto", "broadcast", "repartition"} {
		for _, shards := range []int{2, 8} {
			db := build()
			db.Opt.Distributed = true
			db.Opt.Shards = shards
			db.Opt.DistJoin = strat
			for _, q := range queries {
				runBoth(t, serial, db, q)
			}
		}
	}
}

// TestDistributedTopologies: every fabric builder must route the query's
// flows and preserve parity.
func TestDistributedTopologies(t *testing.T) {
	serialDB := demoDB(13, 2000, 60)
	q := "SELECT region, COUNT(*) AS n, SUM(price) AS total FROM sales GROUP BY region ORDER BY total DESC"
	for _, topoName := range []string{"leafspine", "single", "fattree", "torus"} {
		db := distDB(13, 2000, 60, 4, false)
		db.Opt.Topology = topoName
		runBoth(t, serialDB, db, q)
		plan, err := db.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Run(); err != nil {
			t.Fatal(err)
		}
		stats := plan.NetStats()
		if stats == nil || stats.Topology != topoName {
			t.Fatalf("%s: missing or mislabelled net stats: %+v", topoName, stats)
		}
		if stats.NetSeconds <= 0 || stats.BytesShuffled <= 0 || stats.Flows == 0 {
			t.Fatalf("%s: expected nonzero network cost, got %+v", topoName, stats)
		}
	}
}

// TestDistributedNetStats: every movement phase must be charged as real
// flows with link-level accounting.
func TestDistributedNetStats(t *testing.T) {
	db := distDB(17, 3000, 80, 4, false)
	db.Opt.DistJoin = "repartition"
	q := "SELECT c.segment, SUM(s.price) AS total FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY total DESC"
	plan, err := db.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NetStats() != nil {
		t.Fatal("net stats must be nil before execution")
	}
	if _, err := plan.Run(); err != nil {
		t.Fatal(err)
	}
	stats := plan.NetStats()
	if stats == nil {
		t.Fatal("net stats missing after execution")
	}
	var sawShuffle, sawGather bool
	for _, ph := range stats.Phases {
		if strings.HasPrefix(ph.Name, "shuffle") && ph.Flows > 0 {
			sawShuffle = true
		}
		if ph.Name == "gather" && ph.Flows > 0 {
			sawGather = true
		}
	}
	if !sawShuffle || !sawGather {
		t.Fatalf("expected shuffle and gather phases with flows, got %+v", stats.Phases)
	}
	if stats.NetSeconds <= 0 || stats.BytesShuffled <= 0 {
		t.Fatalf("expected positive network time and bytes, got %+v", stats)
	}
	if stats.MaxLinkUtil <= 0 || stats.MaxLinkUtil > 1+1e-9 {
		t.Fatalf("max link utilization out of range: %v", stats.MaxLinkUtil)
	}
	if len(stats.Links) == 0 {
		t.Fatal("expected per-link loads")
	}
	var linkBytes float64
	for _, l := range stats.Links {
		linkBytes += l.Bytes
	}
	if linkBytes < stats.BytesShuffled {
		t.Fatalf("links carried %v bytes < %v shuffled (flows must traverse links)", linkBytes, stats.BytesShuffled)
	}

	// Broadcast of the small dimension must be chosen by the auto cost
	// rule and show up as a broadcast phase.
	db2 := distDB(17, 3000, 80, 4, false)
	plan2, err := db2.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan2.Run(); err != nil {
		t.Fatal(err)
	}
	var sawBroadcast bool
	for _, ph := range plan2.NetStats().Phases {
		if strings.HasPrefix(ph.Name, "broadcast") && ph.Flows > 0 {
			sawBroadcast = true
		}
	}
	if !sawBroadcast {
		t.Fatalf("auto movement should broadcast the small build side, phases: %+v", plan2.NetStats().Phases)
	}
}

// TestDistributedRepeatable: two runs of the same distributed query agree
// bit-for-bit, including their network accounting.
func TestDistributedRepeatable(t *testing.T) {
	db := distDB(19, 4000, 80, 8, true)
	for _, q := range parityQueries {
		a, err := db.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		b, err := db.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if a.Len() != b.Len() {
			t.Fatalf("%q: run lengths differ: %d vs %d", q, a.Len(), b.Len())
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				x, y := a.Rows[i][j], b.Rows[i][j]
				if x.T != y.T || x.I != y.I || x.F != y.F || x.S != y.S {
					t.Fatalf("%q: run outputs differ at row %d col %d: %v vs %v", q, i, j, x, y)
				}
			}
		}
	}
	// Network accounting is deterministic too.
	q := "SELECT region, COUNT(*) FROM sales GROUP BY region"
	stats := func() (float64, float64) {
		plan, err := db.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Run(); err != nil {
			t.Fatal(err)
		}
		s := plan.NetStats()
		return s.NetSeconds, s.BytesShuffled
	}
	t1, b1 := stats()
	t2, b2 := stats()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("network accounting not reproducible: (%v,%v) vs (%v,%v)", t1, b1, t2, b2)
	}
}

// TestDistributedErrorsSurface: shard-local evaluation errors propagate
// out of worker goroutines and fragment stages.
func TestDistributedErrorsSurface(t *testing.T) {
	db := distDB(23, 2000, 50, 4, false)
	if _, err := db.Query("SELECT price / (quantity - quantity) FROM sales"); err == nil ||
		!strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("expected division by zero from distributed engine, got %v", err)
	}
}

// TestDistributedExplain: distributed plans advertise the engine, the
// movement decisions and the coordinator stages without executing.
func TestDistributedExplain(t *testing.T) {
	db := distDB(29, 500, 20, 4, false)
	plan, err := db.Plan("SELECT c.segment, COUNT(*) AS n FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY n DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain()
	for _, want := range []string{"engine: distributed", "hash join #0", "partial aggregate per shard", "gather partials", "coordinator"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
	if plan.NetStats() != nil {
		t.Fatal("explain must not execute the plan")
	}
	if got := db.Opt.DistJoin; got != "" {
		t.Fatalf("plan must not mutate options, DistJoin = %q", got)
	}
}

// TestDistributedSeesAppends: an append swaps the catalog entry for the
// relation Extend returns, so the cached shard placement — keyed by the
// relation it was cut from — is stale and the next query re-shards. The
// queried relation itself is frozen: growing it in place, under a cached
// placement and concurrent scans, now fails.
func TestDistributedSeesAppends(t *testing.T) {
	rel := relational.NewRelation("t", relational.Schema{{Name: "x", Type: relational.Int}})
	for i := 0; i < 10; i++ {
		rel.MustAppend(relational.Row{relational.IntV(int64(i))})
	}
	db := newTestDB()
	db.Register(rel)
	db.Opt.Distributed = true
	db.Opt.Shards = 4
	count := func() int64 {
		res, err := db.Query("SELECT COUNT(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].I
	}
	if got := count(); got != 10 {
		t.Fatalf("initial count = %d", got)
	}
	if err := rel.Append(relational.Row{relational.IntV(99)}); err == nil {
		t.Fatal("in-place append to a queried relation must fail")
	}
	eng, err := db.engine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AppendRows("t", []relational.Row{{relational.IntV(99)}}); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 11 {
		t.Fatalf("count after append = %d (stale shard cache)", got)
	}
}

// TestDistributedBadOptions: unknown topologies and join strategies error
// at plan time.
func TestDistributedBadOptions(t *testing.T) {
	db := distDB(31, 100, 10, 4, false)
	db.Opt.Topology = "moebius"
	if _, err := db.Query("SELECT COUNT(*) FROM sales"); err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Fatalf("expected topology error, got %v", err)
	}
	db = distDB(31, 100, 10, 4, false)
	db.Opt.DistJoin = "teleport"
	if _, err := db.Query("SELECT COUNT(*) FROM sales"); err == nil || !strings.Contains(err.Error(), "DistJoin") {
		t.Fatalf("expected DistJoin error, got %v", err)
	}
}
