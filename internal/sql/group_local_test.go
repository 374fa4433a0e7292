package sql

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/relational"
)

// The group-local suite: a GROUP BY whose keys include the column its
// stream is partitioned on finishes on the shards (planDistGroupLocal).
// Failure modes come first — statements that must fail as on the single
// node, then every aggregate that must keep the partial-state gather,
// charging what it charged before the group-local path existed — then
// parity with the single node over every key form and data shape, then
// faults.

const groupLocalStep = "aggregate per shard (groups co-placed on "

// groupLocalQueries run over the demo tables co-placed on customer_id, and
// each takes the group-local path: ORDER BY + LIMIT (the benchmark's
// groupby class), no ORDER BY, LIMIT alone, HAVING (and one that keeps no
// group), AVG/MIN/MAX, two group keys, ORDER BY position, the build-side
// key of a local join, orders whose ties only first-seen order breaks, an
// ORDER BY over an aggregate the select list does not show, and LIMIT 0.
var groupLocalQueries = []string{
	"SELECT customer_id, COUNT(*) AS n, SUM(price) AS revenue FROM sales GROUP BY customer_id ORDER BY revenue DESC, customer_id LIMIT 10",
	"SELECT customer_id, COUNT(*) AS n FROM sales GROUP BY customer_id",
	"SELECT customer_id, SUM(quantity) AS q FROM sales GROUP BY customer_id LIMIT 7",
	"SELECT customer_id, COUNT(*) AS n FROM sales GROUP BY customer_id HAVING COUNT(*) >= 3 AND SUM(price) > 100 ORDER BY n DESC, customer_id",
	"SELECT customer_id, COUNT(*) AS n FROM sales GROUP BY customer_id HAVING COUNT(*) > 100000 ORDER BY n LIMIT 4",
	"SELECT customer_id, AVG(price) AS a, MIN(product) AS lo, MAX(price) AS hi FROM sales GROUP BY customer_id ORDER BY a DESC LIMIT 15",
	"SELECT region, customer_id, COUNT(*) AS n FROM sales GROUP BY region, customer_id ORDER BY n DESC LIMIT 20",
	"SELECT customer_id, SUM(price) AS r FROM sales WHERE year >= 2014 GROUP BY customer_id ORDER BY 2 DESC LIMIT 5",
	"SELECT c.customer_id, COUNT(*) AS n, SUM(s.price) AS v FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.customer_id ORDER BY n DESC LIMIT 12",
	"SELECT s.customer_id, c.segment, MAX(s.quantity) AS q FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY s.customer_id, c.segment ORDER BY q",
	"SELECT customer_id, COUNT(*) AS n FROM sales GROUP BY customer_id ORDER BY n DESC LIMIT 30",
	"SELECT customer_id, MAX(year) AS y FROM sales GROUP BY customer_id ORDER BY y LIMIT 25",
	"SELECT customer_id, SUM(price) / COUNT(*) AS avgp FROM sales GROUP BY customer_id ORDER BY SUM(quantity) DESC, customer_id LIMIT 6",
	"SELECT customer_id, COUNT(*) AS n FROM sales GROUP BY customer_id ORDER BY 2 LIMIT 0",
}

// groupLocalCase is a catalog with its placements and the statements over
// it that take the group-local path.
type groupLocalCase struct {
	name    string
	tables  []*relational.Relation
	place   [][2]string
	queries []string
}

// groupLocalCases are the demo catalog plus the key forms and data shapes
// the demo does not have: a coded and a plain String key, a Float key
// (with -0.0 beside 0.0, distinct keys on both engines, and ties between
// them in the order), every row on one key (three empty shards), and an
// empty table.
func groupLocalCases() []groupLocalCase {
	keyed := func(q ...string) []string { return q }
	strQueries := keyed(
		"SELECT key, COUNT(*) AS n, SUM(v) AS s FROM facts GROUP BY key ORDER BY s DESC, key LIMIT 6",
		"SELECT key, MIN(v) AS lo FROM facts GROUP BY key",
	)
	const nf = 1200
	fk, fv := make([]float64, nf), make([]int64, nf)
	for i := range nf {
		fk[i], fv[i] = float64((i*7)%23)/4-2, int64(i%31)
		if i%50 == 0 {
			fk[i] = math.Copysign(0, -1)
		}
	}
	floats := relational.NewColumnRelation("readings", relational.Schema{{Name: "f", Type: relational.Float}, {Name: "v", Type: relational.Int}},
		[]relational.Vector{{T: relational.Float, Floats: fk}, {T: relational.Int, Ints: fv}}, nf)
	empty := relational.NewColumnRelation("void", relational.Schema{{Name: "k", Type: relational.Int}, {Name: "v", Type: relational.Int}},
		[]relational.Vector{{T: relational.Int}, {T: relational.Int}}, 0)
	return []groupLocalCase{
		{"demo", []*relational.Relation{SalesRelation(7, 5000, 300), CustomersRelation(8, 300)},
			[][2]string{{"sales", "customer_id"}, {"customers", "customer_id"}}, groupLocalQueries},
		{"coded string key", stringKeyTables(true, true), [][2]string{{"facts", "key"}}, strQueries},
		{"plain string key", stringKeyTables(false, false), [][2]string{{"facts", "key"}}, strQueries},
		{"float key", []*relational.Relation{floats}, [][2]string{{"readings", "f"}}, keyed(
			"SELECT f, COUNT(*) AS n, SUM(v) AS s FROM readings GROUP BY f ORDER BY f LIMIT 9",
			"SELECT f, v, COUNT(*) AS n FROM readings GROUP BY f, v ORDER BY n DESC LIMIT 11",
		)},
		{"one hot key", hotKeyTables()[:1], [][2]string{{"facts", "key"}}, keyed(
			"SELECT key, COUNT(*) AS n, SUM(v) AS s FROM facts GROUP BY key",
			"SELECT key, v, COUNT(*) AS n FROM facts GROUP BY key, v ORDER BY n DESC LIMIT 5",
		)},
		{"empty table", []*relational.Relation{empty}, [][2]string{{"void", "k"}}, keyed(
			"SELECT k, COUNT(*) AS n FROM void GROUP BY k ORDER BY n DESC LIMIT 3",
			"SELECT k, SUM(v) AS s FROM void GROUP BY k",
		)},
	}
}

// groupLocalDB returns a 4-shard testDB over c's catalog with c's
// placements.
func groupLocalDB(c groupLocalCase) *testDB {
	db := newTestDB()
	for _, rel := range c.tables {
		db.Register(rel)
	}
	db.Opt.Distributed, db.Opt.Shards = true, 4
	for _, p := range c.place {
		db.Place(p[0], p[1])
	}
	return db
}

// TestGroupLocalErrorsMatchSingleNode: a statement the single node refuses
// is refused with the same error when its groups are co-placed.
func TestGroupLocalErrorsMatchSingleNode(t *testing.T) {
	demo := groupLocalCases()[0]
	for _, c := range []struct{ sql, want string }{
		{"SELECT customer_id, COUNT(*) FROM sales GROUP BY customer_id ORDER BY 3", "ORDER BY position 3 out of range"},
		{"SELECT customer_id, COUNT(*) FROM sales GROUP BY customer_id ORDER BY 0", "ORDER BY position 0 out of range"},
		{"SELECT customer_id, COUNT(*) FROM sales GROUP BY customer_id HAVING nosuch > 1", `unknown column "nosuch"`},
		{"SELECT customer_id, COUNT(*) AS n FROM sales GROUP BY customer_id HAVING region = 'EU'", `unknown column "region"`},
		{"SELECT customer_id, SUM(region) FROM sales GROUP BY customer_id", "sum over string expression"},
		{"SELECT customer_id, price FROM sales GROUP BY customer_id", `unknown column "price"`},
		{"SELECT customer_id, COUNT(*) AS n FROM sales GROUP BY customer_id ORDER BY nosuch LIMIT 2", `unknown column "nosuch"`},
	} {
		serial, db := groupLocalDB(demo), groupLocalDB(demo)
		serial.Opt.Distributed = false
		_, want := serial.Plan(c.sql)
		_, got := db.Plan(c.sql)
		if want == nil || got == nil || got.Error() != want.Error() || !strings.Contains(got.Error(), c.want) {
			t.Errorf("%s\nsingle node: %v\nco-placed:   %v\nwant both to contain %s", c.sql, want, got, c.want)
		}
	}
}

// TestGroupLocalFallbacksPinned: every aggregate the group-local path must
// not take keeps the partial-state gather and charges exactly what it did
// before that path existed — phase for phase, flows, bytes and modeled
// seconds to the bit: a global aggregate, a group key that is an
// expression over the placement column, a group-by on range-placed sales,
// and a group-by on a non-key column after a local join. The literals were
// recorded at 964a8a1, the parent of the group-local path, with one worker
// per host. Rows match the single node in every case.
func TestGroupLocalFallbacksPinned(t *testing.T) {
	for _, c := range []struct {
		name, sql string
		placed    bool
		want      []string
	}{
		{"global aggregate", "SELECT COUNT(*) AS n, SUM(price) AS v, MAX(quantity) AS q FROM sales", true,
			[]string{"gather flows=4 bytes=488 sec=2.3904000000000004e-06", "wall=2.3904000000000004e-06"}},
		{"expression over the key", "SELECT customer_id % 7 AS b, COUNT(*) AS n FROM sales GROUP BY customer_id % 7 ORDER BY b", true,
			[]string{"gather flows=4 bytes=1400 sec=3.1200000000000006e-06", "wall=3.1200000000000006e-06"}},
		{"range-placed", "SELECT customer_id, COUNT(*) AS n, SUM(price) AS revenue FROM sales GROUP BY customer_id ORDER BY revenue DESC, customer_id LIMIT 10", false,
			[]string{"gather flows=4 bytes=83070 sec=6.7664e-05", "wall=6.7664e-05"}},
		{"non-key column after a local join", "SELECT c.segment, COUNT(*) AS n, SUM(s.price) AS v FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment", true,
			[]string{"local#0 flows=0 bytes=0 sec=0", "gather flows=4 bytes=1876 sec=3.5008000000000004e-06", "wall=3.5008000000000004e-06"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := demoDB(31, 2000, 800)
			single, err := db.Query(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			db.Opt.Workers = 1
			db.Opt.Distributed, db.Opt.Shards = true, 4
			if c.placed {
				db.Place("sales", "customer_id")
				db.Place("customers", "customer_id")
			}
			plan, err := db.Plan(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if explain := plan.Explain(); strings.Contains(explain, groupLocalStep) || !strings.Contains(explain, "gather partials to coordinator") {
				t.Fatalf("must keep the partial-state gather:\n%s", explain)
			}
			rows, err := plan.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameRelation(t, c.sql, single, rows)
			got := phaseLines(t, &Result{Rows: rows, Net: plan.net})
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Fatalf("charged\n%s\nwant (as recorded at 964a8a1)\n%s", strings.Join(got, "\n"), strings.Join(c.want, "\n"))
			}
		})
	}
}

// TestGroupLocalMatchesSingleNode: every group-local statement plans the
// per-shard finish and returns the single node's rows in its order (floats
// within the parity suite's 1e-9), at 1 and 2 workers per host, under bulk
// and 128-row chunked movement, and under a 2% memory budget — which makes
// the demo's shard folds spill. The benchmark's groupby class gathers at
// most shards × LIMIT rows.
func TestGroupLocalMatchesSingleNode(t *testing.T) {
	type opts struct {
		workers, chunk int
		budget         bool
	}
	for _, c := range groupLocalCases() {
		for _, o := range []opts{{1, 0, false}, {1, 128, false}, {2, 0, false}, {2, 128, false}, {1, 0, true}, {2, 128, true}} {
			serial, db := groupLocalDB(c), groupLocalDB(c)
			serial.Opt.Distributed, serial.Opt.Parallel = false, false
			db.Opt.Workers, db.Opt.PipelineChunkRows = o.workers, o.chunk
			if o.budget {
				db.Opt.MemoryBudget, db.Opt.SpillTier = int64(c.tables[0].EncodedBytes()*0.02), "ssd"
			}
			eng, err := db.engine()
			if err != nil {
				t.Fatal(err)
			}
			spilled := int64(0)
			for _, q := range c.queries {
				want, err := serial.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				explain, err := eng.Session().Explain(q)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(explain, groupLocalStep) {
					t.Fatalf("%s %+v: %s\ndoes not finish on the shards:\n%s", c.name, o, q, explain)
				}
				res, err := eng.Session().Query(context.Background(), q)
				if err != nil {
					t.Fatalf("%s %+v: %s: %v", c.name, o, q, err)
				}
				sameRelation(t, fmt.Sprintf("%s %+v: %s", c.name, o, q), want, res.Rows)
				if res.Spill != nil {
					spilled += res.Spill.SpilledBytes
				}
				if q == groupLocalQueries[0] && res.Rows.Len() > 0 {
					// A gathered row is a result row (numeric cells) plus its
					// two ORDER BY keys and its seq tag, 8 B each.
					row := res.Rows.EncodedBytes()/float64(res.Rows.Len()) + 3*8
					if gather := res.Net.Phases[len(res.Net.Phases)-1]; gather.Name != "gather" || gather.Bytes > 4*10*row {
						t.Fatalf("%+v: the LIMIT 10 class gathered %+v, more than 4 shards × 10 rows of %v B", o, gather, row)
					}
				}
			}
			if o.budget && c.name == "demo" && spilled == 0 {
				t.Fatalf("%+v: the 2%% budget spilled nothing, so it proved nothing", o)
			}
		}
	}
}

// TestGroupLocalUnderFaults: on a replication-2 cluster the group-local
// path returns the clean run's rows through host deaths and stragglers,
// and measures what they cost. A host killed in the gather — the phase
// right after the partial-aggregate round — or in the local join ahead of
// that round (whose folds then run on the new primaries) is counted as
// retried fragments with modeled recovery seconds; a straggler in the
// partial-aggregate round (fragment round 0 of the single-table query) or
// in the finish round after it (round 1) is speculated and the win
// counted.
func TestGroupLocalUnderFaults(t *testing.T) {
	const join = "SELECT c.customer_id, COUNT(*) AS n, SUM(s.price) AS v FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.customer_id ORDER BY n DESC LIMIT 12"
	run := func(q, faults string) (*Engine, *Result) {
		cfg := Config{Distributed: true, Shards: 4, Replication: 2}
		if faults != "" {
			plan, err := lifecycle.ParsePlan(faults, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = plan
		}
		eng := placedEngine(t, cfg, PlaceDemo)
		if explain, err := eng.Session().Explain(q); err != nil || !strings.Contains(explain, groupLocalStep) {
			t.Fatalf("%s does not finish on the shards (%v):\n%s", q, err, explain)
		}
		res, err := eng.Session().Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s under %q: %v", q, faults, err)
		}
		return eng, res
	}
	for _, c := range []struct {
		name, sql, faults string
		kill              bool
	}{
		{"kill in the gather", groupLocalQueries[0], "kill:1@0:0.5", true},
		{"kill in the local join", join, "kill:2@0:0.5", true},
		{"straggler in the partial-aggregate round", groupLocalQueries[0], "slow:1@0:4", false},
		{"straggler in the finish round", groupLocalQueries[0], "slow:3@1:4", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, clean := run(c.sql, "")
			eng, faulted := run(c.sql, c.faults)
			if clean.Rows.Len() == 0 {
				t.Fatal("the clean run returned no rows")
			}
			sameRelation(t, c.sql, clean.Rows, faulted.Rows)
			if h := eng.Lifecycle().Health(); h.EventsFired != 1 {
				t.Fatalf("%s fired %d events", c.faults, h.EventsFired)
			}
			if clean.Net.RetriedFragments != 0 || clean.Net.SpeculativeWins != 0 || clean.Net.RecoverySeconds != 0 {
				t.Fatalf("the clean run measured recovery: %+v", clean.Net)
			}
			switch {
			case c.kill && (faulted.Net.RetriedFragments == 0 || faulted.Net.RecoverySeconds <= 0):
				t.Fatalf("a host death measured no recovery: %+v", faulted.Net)
			case !c.kill && (faulted.Net.SpeculativeWins < 1 || faulted.Net.RecoverySeconds <= 0):
				t.Fatalf("a straggler was not speculated: %+v", faulted.Net)
			}
		})
	}
}
