package sql

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/lifecycle"
	"repro/internal/relational"
	"repro/internal/stream"
)

// The placement suite: Engine.Place, the hash placement's lazy shards and
// the local join movement. Failure modes come first — refused
// declarations, then every join that must fall back to moving data, each
// charging what it charged before the local movement existed — then
// parity with the single node, then the edges (string key forms, one hot
// shard, a host killed in the local phase, growth) and the placement's
// memory.

// TestPlaceRefusesUnknownNames: Place names a registered table and one of
// its columns, or fails and changes nothing.
func TestPlaceRefusesUnknownNames(t *testing.T) {
	eng := placedEngine(t, Config{}, nil)
	for _, c := range []struct{ table, column, want string }{
		{"nosuch", "customer_id", `unknown table "nosuch"`},
		{"sales", "nosuch", `no column "nosuch"`},
		{"sales", "", `no column ""`},
		{"", "customer_id", `unknown table ""`},
	} {
		epoch := eng.CatalogEpoch()
		err := eng.Place(c.table, c.column)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Place(%q, %q) = %v, want an error containing %s", c.table, c.column, err, c.want)
		}
		if eng.CatalogEpoch() != epoch {
			t.Errorf("refused Place(%q, %q) bumped the catalog epoch", c.table, c.column)
		}
	}
}

// TestPlaceIsACatalogOperation: Place bumps the catalog epoch and re-places
// the table at the next query; Register of the name resets it to range.
func TestPlaceIsACatalogOperation(t *testing.T) {
	eng := placedEngine(t, Config{Distributed: true, Shards: 4}, nil)
	const join = "SELECT c.segment, COUNT(*) AS n FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment"
	explain := func() string {
		plan, err := eng.Session().Explain(join)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	if plan := explain(); !strings.Contains(plan, "range-sharded") || !strings.Contains(plan, "movement=auto") {
		t.Fatalf("unplaced tables:\n%s", plan)
	}
	epoch := eng.CatalogEpoch()
	if err := PlaceDemo(eng); err != nil {
		t.Fatal(err)
	}
	if got := eng.CatalogEpoch(); got != epoch+2 {
		t.Fatalf("two Place calls moved the catalog epoch %d → %d", epoch, got)
	}
	for _, want := range []string{"hash-sharded", "sales as s (2000 rows over 4 shards, hash-placed on customer_id)", "movement=local"} {
		if plan := explain(); !strings.Contains(plan, want) {
			t.Fatalf("placed tables: no %q in\n%s", want, plan)
		}
	}
	eng.Register(SalesRelation(31, 2000, 800))
	if plan := explain(); !strings.Contains(plan, "mixed-sharded") || !strings.Contains(plan, "movement=auto") {
		t.Fatalf("re-registered sales must be range-placed again:\n%s", plan)
	}
}

// placedEngine builds an engine over cfg with the 2000 × 800 demo tables
// registered (range-placed), then applies place (nil: nothing).
func placedEngine(t testing.TB, cfg Config, place func(*Engine) error) *Engine {
	t.Helper()
	cfg.Parallel = true
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(eng, 31, 2000, 800)
	if place != nil {
		if err := place(eng); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// colocTables are the co-placement fixtures: orders and custs share an
// Int key (cust, each table's first Int column), tags carries every other
// key, and fcusts carries the keys as Floats.
func colocTables() []*relational.Relation {
	const n, k = 3000, 257
	regions := []string{"north", "south", "east", "west", "center"}
	segs := []string{"retail", "smb", "enterprise", "gov"}
	oc, oid, reg := make([]int64, n), make([]int64, n), make([]string, n)
	amt := make([]float64, n)
	for i := range n {
		oc[i] = int64((i*i*31 + i*17) % k)
		oid[i] = int64(i)
		amt[i] = float64((i*37)%1000) / 10
		reg[i] = regions[i%len(regions)]
	}
	orders := relational.NewColumnRelation("orders", relational.Schema{
		{Name: "cust", Type: relational.Int}, {Name: "order_id", Type: relational.Int},
		{Name: "amount", Type: relational.Float}, {Name: "region", Type: relational.String},
	}, []relational.Vector{{T: relational.Int, Ints: oc}, {T: relational.Int, Ints: oid},
		{T: relational.Float, Floats: amt}, relational.StringVector(reg)}, n)
	cc, seg := make([]int64, k), make([]string, k)
	fc, fname := make([]float64, k), make([]string, k)
	for j := range k {
		cc[j] = int64(j * 13 % k)
		seg[j] = segs[j%len(segs)]
		fc[j] = float64(k - 1 - j)
		fname[j] = fmt.Sprintf("n%d", j)
	}
	custs := relational.NewColumnRelation("custs", relational.Schema{
		{Name: "cust", Type: relational.Int}, {Name: "seg", Type: relational.String},
	}, []relational.Vector{{T: relational.Int, Ints: cc}, relational.StringVector(seg)}, k)
	fcusts := relational.NewColumnRelation("fcusts", relational.Schema{
		{Name: "fcust", Type: relational.Float}, {Name: "name", Type: relational.String},
	}, []relational.Vector{{T: relational.Float, Floats: fc}, {T: relational.String, Strs: fname}}, k)
	var tc []int64
	var tag []string
	for j := 0; j < k; j += 2 {
		tc = append(tc, int64(j))
		tag = append(tag, fmt.Sprintf("t%d", j%3))
	}
	tags := relational.NewColumnRelation("tags", relational.Schema{
		{Name: "cust", Type: relational.Int}, {Name: "tag", Type: relational.String},
	}, []relational.Vector{{T: relational.Int, Ints: tc}, relational.StringVector(tag)}, len(tc))
	return []*relational.Relation{orders, custs, fcusts, tags}
}

// phaseLines renders a result's phases as bulkPinned does, one line each.
func phaseLines(t *testing.T, res *Result) []string {
	t.Helper()
	return strings.Split(strings.TrimSuffix(bulkPinned(t, res), "\n"), "\n")
}

// TestColocFallbacksPinned: every join the local movement must not take
// moves data exactly as before the local movement existed — phase for
// phase, flows, bytes and modeled seconds to the bit — with the tables
// hash-placed on their first Int column, the placement Config.ShardHash
// applied. The literals were recorded at c9b98c1, the last commit with
// ShardHash, with it set and one worker per host. Rows match the single
// node in every case.
func TestColocFallbacksPinned(t *testing.T) {
	const coGroup = "SELECT c.seg, COUNT(*) AS n, SUM(o.amount) AS v FROM orders o JOIN custs c ON o.cust = c.cust GROUP BY c.seg"
	for _, c := range []struct {
		name, distJoin, sql string
		demo                bool
		// want lists the phase lines the run must charge; for the chain,
		// only the lines after its (local) first join.
		want []string
	}{
		{"non-placement key", "auto",
			"SELECT c.segment, COUNT(*) AS n, SUM(s.price) AS v FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment", true,
			[]string{"shuffle#0 flows=12 bytes=39104 sec=1.1214399999999999e-05", "gather flows=4 bytes=1876 sec=3.5008000000000004e-06", "wall=1.47152e-05"}},
		{"non-placement key, rows", "auto",
			"SELECT s.order_id, s.price, c.segment FROM sales s JOIN customers c ON s.customer_id = c.customer_id", true,
			[]string{"shuffle#0 flows=12 bytes=51136 sec=1.4049600000000002e-05", "gather flows=4 bytes=75981 sec=6.27848e-05", "wall=7.68344e-05"}},
		{"forced broadcast", "broadcast", coGroup, false,
			[]string{"broadcast#0 flows=12 bytes=21204 sec=6.3752e-06", "gather flows=4 bytes=1464 sec=3.1712000000000002e-06", "wall=9.5464e-06"}},
		{"forced repartition", "repartition", coGroup, false,
			[]string{"shuffle#0 flows=0 bytes=0 sec=0", "gather flows=4 bytes=1464 sec=3.1712000000000002e-06", "wall=3.1712000000000002e-06"}},
		{"forced repartition, rows", "repartition", "SELECT o.order_id, c.seg FROM orders o JOIN custs c ON o.cust = c.cust", false,
			[]string{"shuffle#0 flows=0 bytes=0 sec=0", "gather flows=4 bytes=81899 sec=6.651919999999999e-05", "wall=6.651919999999999e-05"}},
		{"int vs float keys", "auto", "SELECT o.order_id, f.name FROM orders o JOIN fcusts f ON o.cust = f.fcust", false,
			[]string{"broadcast#0 flows=12 bytes=19716 sec=6.3608e-06", "gather flows=0 bytes=0 sec=0", "wall=6.3608e-06"}},
		{"second join of a chain", "auto",
			"SELECT t.tag, c.seg, COUNT(*) AS n FROM orders o JOIN custs c ON o.cust = c.cust JOIN tags t ON o.cust = t.cust GROUP BY t.tag, c.seg", false,
			[]string{"broadcast#1 flows=12 bytes=9288 sec=3.9008e-06", "gather flows=4 bytes=2128 sec=3.62e-06"}},
		{"second join of a chain, rows", "auto",
			"SELECT o.order_id, c.seg, t.tag FROM orders o JOIN custs c ON o.cust = c.cust JOIN tags t ON o.cust = t.cust", false,
			[]string{"broadcast#1 flows=12 bytes=9288 sec=3.9008e-06", "gather flows=4 bytes=48754 sec=4.03024e-05"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var db *testDB
			if c.demo {
				db = demoDB(31, 2000, 800)
			} else {
				db = newTestDB()
				for _, rel := range colocTables() {
					db.Register(rel)
				}
			}
			single, err := db.Query(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			db.Opt.Workers = 1
			db.Opt.Distributed, db.Opt.Shards, db.Opt.DistJoin = true, 4, c.distJoin
			db.PlaceFirstInt()
			plan, err := db.Plan(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := plan.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameRelation(t, c.sql, single, rows)
			got := phaseLines(t, &Result{Rows: rows, Net: plan.net})
			if strings.HasPrefix(c.name, "second join") {
				if got[0] != "local#0 flows=0 bytes=0 sec=0" {
					t.Fatalf("the chain's first join is co-placed and must run local, got %q", got[0])
				}
				got = got[1:3]
			}
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Fatalf("charged\n%s\nwant (as recorded at c9b98c1)\n%s", strings.Join(got, "\n"), strings.Join(c.want, "\n"))
			}
		})
	}
}

// colocQueries are the repository benchmark's four statement classes plus
// row-returning joins in both build orientations (customers, the smaller
// side, builds: as the right leg, swapped, and as the left leg), whose
// output order the probe side's seq lineage decides.
var colocQueries = []string{
	"SELECT order_id, price FROM sales WHERE year >= 2015 AND quantity <= 4",
	"SELECT c.segment, COUNT(*) AS n, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2012 GROUP BY c.segment ORDER BY net DESC",
	"SELECT customer_id, COUNT(*) AS n, SUM(price) AS revenue FROM sales GROUP BY customer_id ORDER BY revenue DESC, customer_id LIMIT 10",
	"SELECT order_id, price, quantity FROM sales WHERE year >= 2016 ORDER BY price DESC, order_id LIMIT 100",
	"SELECT s.order_id, c.name, s.price FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2014",
	"SELECT c.name, s.order_id FROM customers c JOIN sales s ON c.customer_id = s.customer_id AND s.quantity > 2",
}

// TestColocMatchesSingleNode: with sales and customers co-placed on
// customer_id, every class returns the single node's rows in its order
// (floats within the parity suite's 1e-9), at 1 and 2 workers per host
// and under bulk and 128-row chunked movement — and every join runs local:
// its one join phase moves nothing.
func TestColocMatchesSingleNode(t *testing.T) {
	serial := demoDB(7, 5000, 300)
	for _, workers := range []int{1, 2} {
		for _, chunk := range []int{0, 128} {
			db := demoDB(7, 5000, 300)
			db.Opt.Workers, db.Opt.PipelineChunkRows = workers, chunk
			db.Opt.Distributed, db.Opt.Shards = true, 4
			db.Place("sales", "customer_id")
			db.Place("customers", "customer_id")
			for _, q := range colocQueries {
				runBoth(t, serial, db, q)
				if !strings.Contains(q, "JOIN") {
					continue
				}
				plan, err := db.Plan(q)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := plan.Run(); err != nil {
					t.Fatal(err)
				}
				if p := plan.net.Phases[0]; p.Name != "local#0" || p.Flows != 0 || p.Bytes != 0 || p.Seconds != 0 {
					t.Fatalf("workers=%d chunk=%d: %s\nfirst phase %+v, want an empty local#0", workers, chunk, q, p)
				}
			}
		}
	}
}

// stringKeyTables returns facts (key, v) and dims (key, label) over 40
// String keys, each key column coded or plain as asked.
func stringKeyTables(factsCoded, dimsCoded bool) []*relational.Relation {
	col := func(strs []string, coded bool) relational.Vector {
		if coded {
			return relational.StringVector(strs)
		}
		return relational.Vector{T: relational.String, Strs: strs}
	}
	const n, k = 1500, 40
	fk, fv := make([]string, n), make([]int64, n)
	for i := range n {
		fk[i], fv[i] = fmt.Sprintf("key-%02d", (i*7+i/3)%k), int64(i%113)
	}
	dk, dl := make([]string, k), make([]string, k)
	for j := range k {
		dk[j], dl[j] = fmt.Sprintf("key-%02d", (j*11)%k), fmt.Sprintf("L%d", j%6)
	}
	return []*relational.Relation{
		relational.NewColumnRelation("facts", relational.Schema{{Name: "key", Type: relational.String}, {Name: "v", Type: relational.Int}},
			[]relational.Vector{col(fk, factsCoded), {T: relational.Int, Ints: fv}}, n),
		relational.NewColumnRelation("dims", relational.Schema{{Name: "key", Type: relational.String}, {Name: "label", Type: relational.String}},
			[]relational.Vector{col(dk, dimsCoded), relational.StringVector(dl)}, k),
	}
}

// TestColocStringKeyForms: a coded and a plain String key hash alike, so
// String-keyed tables co-place whatever form their key columns take — the
// coded twin, the plain twin and the mixed pair all join local, return the
// single node's rows and charge the same bits.
func TestColocStringKeyForms(t *testing.T) {
	queries := []string{
		"SELECT d.label, COUNT(*) AS n, SUM(f.v) AS s FROM facts f JOIN dims d ON f.key = d.key GROUP BY d.label ORDER BY d.label",
		"SELECT f.v, d.label FROM facts f JOIN dims d ON f.key = d.key WHERE f.v > 50",
	}
	for _, q := range queries {
		var first string
		for _, forms := range [][2]bool{{true, true}, {false, false}, {true, false}, {false, true}} {
			serial, db := newTestDB(), newTestDB()
			for _, rel := range stringKeyTables(forms[0], forms[1]) {
				serial.Register(rel)
				db.Register(rel)
			}
			db.Opt.Distributed, db.Opt.Shards = true, 4
			db.Place("facts", "key")
			db.Place("dims", "key")
			runBoth(t, serial, db, q)
			plan, err := db.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := plan.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := bulkPinned(t, &Result{Rows: res, Net: plan.net})
			if !strings.HasPrefix(got, "local#0 flows=0 bytes=0 sec=0\n") {
				t.Fatalf("coded=%v: %s\ndid not run local:\n%s", forms, q, got)
			}
			if first == "" {
				first = got
			} else if got != first {
				t.Fatalf("coded=%v: %s\ncharged\n%s\nthe coded twin charged\n%s", forms, q, got, first)
			}
		}
	}
}

// hotKeyTables returns facts whose every row carries one key and dims over
// that key and others.
func hotKeyTables() []*relational.Relation {
	const n = 3000
	fk, fv := make([]int64, n), make([]float64, n)
	for i := range n {
		fk[i], fv[i] = 7, float64(i%89)/4
	}
	dk, dl := []int64{3, 7, 11, 7}, []string{"a", "b", "c", "d"}
	return []*relational.Relation{
		relational.NewColumnRelation("facts", relational.Schema{{Name: "key", Type: relational.Int}, {Name: "v", Type: relational.Float}},
			[]relational.Vector{{T: relational.Int, Ints: fk}, {T: relational.Float, Floats: fv}}, n),
		relational.NewColumnRelation("dims", relational.Schema{{Name: "key", Type: relational.Int}, {Name: "label", Type: relational.String}},
			[]relational.Vector{{T: relational.Int, Ints: dk}, relational.StringVector(dl)}, len(dk)),
	}
}

// TestColocHotShard: every fact row on one key places the whole table on
// one shard. The local join still returns the single node's rows (the key
// matches two dims rows, so every probe row fans out in build order), and
// when that shard's host straggles in the probe round, a speculative
// duplicate runs and wins without changing a row.
func TestColocHotShard(t *testing.T) {
	queries := []string{
		"SELECT d.label, COUNT(*) AS n, SUM(f.v) AS s FROM facts f JOIN dims d ON f.key = d.key GROUP BY d.label",
		"SELECT f.v, d.label FROM facts f JOIN dims d ON f.key = d.key",
	}
	one := relational.NewColumnRelation("one", relational.Schema{{Name: "key", Type: relational.Int}},
		[]relational.Vector{{T: relational.Int, Ints: []int64{7}}}, 1)
	hot := dist.AppendTransfers(one, 0, 4, dist.HashShard, 0)[0].Dst
	// Round 0 materializes the build side (dims); round 1 is the probe.
	slow, err := lifecycle.ParsePlan(fmt.Sprintf("slow:%d@1:4", hot), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		for _, faults := range []*lifecycle.FaultPlan{nil, slow} {
			serial, db := newTestDB(), newTestDB()
			for _, rel := range hotKeyTables() {
				serial.Register(rel)
				db.Register(rel)
			}
			db.Opt.Distributed, db.Opt.Shards, db.Opt.Replication, db.Opt.Faults = true, 4, 2, faults
			db.Place("facts", "key")
			db.Place("dims", "key")
			if faults == nil {
				runBoth(t, serial, db, q)
				continue
			}
			serial.Opt.Parallel = false
			want, err := serial.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := db.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameRelation(t, q, want, got)
			if plan.net.SpeculativeWins < 1 {
				t.Fatalf("%s: hot shard %d straggled in the probe round but no speculative duplicate won: %+v", q, hot, plan.net)
			}
		}
	}
}

// TestColocKillInLocalPhase: on a replication-2 cluster a host killed in
// the local join's phase loses the tables it built; its shards' new
// primaries rebuild them, the query returns the clean run's rows, and the
// rebuild is measured as recovery (retried fragments, modeled seconds).
func TestColocKillInLocalPhase(t *testing.T) {
	const q = "SELECT c.segment, COUNT(*) AS n, SUM(s.price) AS v FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY v DESC"
	run := func(faults string) (*Engine, *Result) {
		cfg := Config{Distributed: true, Shards: 4, Replication: 2}
		if faults != "" {
			plan, err := lifecycle.ParsePlan(faults, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = plan
		}
		eng := placedEngine(t, cfg, PlaceDemo)
		res, err := eng.Session().Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return eng, res
	}
	_, clean := run("")
	eng, killed := run("kill:1@0:0.5")
	sameRelation(t, q, clean.Rows, killed.Rows)
	if killed.Net.Phases[0].Name != "local#0" {
		t.Fatalf("phase 0 is %s, want the local join", killed.Net.Phases[0].Name)
	}
	if eng.Lifecycle().Health().Dead != 1 {
		t.Fatal("the kill scheduled on the local phase never landed")
	}
	if killed.Net.RetriedFragments == 0 || killed.Net.RecoverySeconds <= 0 {
		t.Fatalf("a host death in the local phase measured no recovery: %+v", killed.Net)
	}
	if clean.Net.RetriedFragments != 0 || clean.Net.RecoverySeconds != 0 {
		t.Fatalf("the clean run measured recovery: %+v", clean.Net)
	}
}

// TestPlacedTableGrows: rows appended to a hash-placed table reach a
// subscription as they land and every later query — a co-placed join
// included, still local — as they would on the single node.
func TestPlacedTableGrows(t *testing.T) {
	var dk, dl []string
	for j := range 20 {
		dk, dl = append(dk, fmt.Sprintf("k%d", j)), append(dl, fmt.Sprintf("L%d", j%3))
	}
	dims := relational.NewColumnRelation("dims", relational.Schema{{Name: "k", Type: relational.String}, {Name: "label", Type: relational.String}},
		[]relational.Vector{relational.StringVector(dk), relational.StringVector(dl)}, len(dk))
	eng := streamEngine(t, func(c *Config) { c.Distributed, c.Shards = true, 4 })
	serial := streamEngine(t, func(c *Config) { c.Parallel = false })
	for _, e := range []*Engine{eng, serial} {
		e.Register(dims)
	}
	for _, place := range [][2]string{{"events", "k"}, {"dims", "k"}} {
		if err := eng.Place(place[0], place[1]); err != nil {
			t.Fatal(err)
		}
	}
	const join = "SELECT d.label, COUNT(*) AS n, SUM(e.v) AS s FROM events e JOIN dims d ON e.k = d.k GROUP BY d.label ORDER BY d.label"
	sess := eng.Session()
	if _, err := sess.Query(context.Background(), join); err != nil {
		t.Fatal(err)
	}
	batches := streamBatches(2000, 100)
	for _, b := range batches {
		if _, err := serial.AppendRows("events", b); err != nil {
			t.Fatal(err)
		}
	}
	wins, st := runStream(t, sess, batches, stream.WindowSpec{TimeCol: "t", Size: 50, Lateness: 3})
	var events int64
	for _, w := range wins {
		events += w.Events
	}
	if events != 2000 || st.Dropped != 0 {
		t.Fatalf("the subscription saw %d of 2000 appended events (%d dropped)", events, st.Dropped)
	}
	for _, q := range []string{join, contQuery + " ORDER BY k", "SELECT COUNT(*) AS n FROM events"} {
		want, err := serial.Session().Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, q, want.Rows, got.Rows)
		if q == join && got.Net.Phases[0].Name != "local#0" {
			t.Fatalf("after the appends the join ran %s, want local#0", got.Net.Phases[0].Name)
		}
	}
}

// TestPlaceGathersOnlyReadColumns: a hash placement keeps no copy of the
// table. After a query over two of eight columns has warmed it, the live
// heap has grown by less than half of what gathering every column of
// every shard (an eager copy) grows it by.
func TestPlaceGathersOnlyReadColumns(t *testing.T) {
	const n = 1 << 16
	schema := relational.Schema{}
	cols := make([]relational.Vector, 8)
	for c := range cols {
		schema = append(schema, relational.Column{Name: fmt.Sprintf("c%d", c), Type: relational.Int})
		cols[c] = relational.Vector{T: relational.Int, Ints: make([]int64, n)}
		for i := range n {
			cols[c].Ints[i] = int64((i*(c+3) + c) % 5003)
		}
	}
	wide := relational.NewColumnRelation("wide", schema, cols, n)
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	eng, err := NewEngine(Config{Parallel: true, Distributed: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.Register(wide)
	if err := eng.Place("wide", "c0"); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	for range 2 {
		if _, err := eng.Session().Query(context.Background(), "SELECT c0, SUM(c1) AS s FROM wide GROUP BY c0"); err != nil {
			t.Fatal(err)
		}
	}
	lazy := int64(liveHeap()) - int64(before)
	before = liveHeap()
	eager := dist.ShardRelation(wide, 4, dist.HashShard, 0)
	all := identityPicks(len(schema))
	for s := range eager.ShardCount() {
		eager.Pick(s, all)
	}
	full := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(eager)
	runtime.KeepAlive(eng)
	if 2*lazy >= full {
		t.Fatalf("a placement warmed over 2 of 8 columns holds %d bytes; an eager copy %d", lazy, full)
	}
}
