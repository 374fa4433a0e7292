package sql

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
)

// Out-of-core acceptance suite: a memory budget models cost, never
// semantics. Every query must return row-for-row the unbudgeted
// engine's answer at every budget, on the serial, morsel-parallel and
// distributed paths, while the batch engines' spill report prices what
// crossed the tier boundary (the serial row engine, the oracle, meters
// nothing).

// spillQueries hit each spilling operator. Their aggregates are Int,
// so the parity sweep across engines (where worker counts and shard
// merges re-associate float sums) compares exact rows; a budget alone
// re-associates nothing — TestSpillFloatAggregatesExact holds budgeted
// Float sums and averages to the unbudgeted engine's bits.
var spillQueries = []string{
	// hash join: the customers build table is what overflows.
	"SELECT c.segment, COUNT(*) AS n, SUM(s.quantity) AS qty " +
		"FROM sales s JOIN customers c ON s.customer_id = c.customer_id " +
		"WHERE s.year >= 2012 GROUP BY c.segment ORDER BY qty DESC",
	// group-by: high-cardinality group state spills in generations.
	"SELECT customer_id, COUNT(*) AS n, SUM(quantity) AS qty " +
		"FROM sales GROUP BY customer_id ORDER BY qty DESC, customer_id LIMIT 10",
	// sort: materialized runs go external.
	"SELECT order_id, product, quantity FROM sales ORDER BY quantity DESC, order_id LIMIT 25",
}

// fullSortQuery is spillQueries[2] without its LIMIT: every row is
// output, so the sort cannot stop at a bounded heap.
const fullSortQuery = "SELECT order_id, product, quantity FROM sales ORDER BY quantity DESC, order_id"

const (
	spillSeed      = 31
	spillRows      = 20000
	spillCustomers = 10000
)

func spillEngine(t *testing.T, budget int64, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MemoryBudget = budget
	if budget > 0 {
		cfg.SpillTier = "ssd"
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(eng, spillSeed, spillRows, spillCustomers)
	return eng
}

func querySpill(t *testing.T, eng *Engine, q string) *Result {
	t.Helper()
	res, err := eng.Session().Query(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// TestSpillParity is the headline acceptance criterion: budgets of
// infinity, half the working set, a tenth of it, and barely one batch
// all reproduce the unbudgeted rows exactly on every execution path,
// the serial oracle reports no spill at any budget, and the tightest
// budget actually spills on the batch paths (otherwise the sweep proved
// nothing).
func TestSpillParity(t *testing.T) {
	ref := map[string]*Result{}
	refEng := spillEngine(t, 0, nil)
	for _, q := range spillQueries {
		ref[q] = querySpill(t, refEng, q)
	}
	sales, ok := refEng.Table("sales")
	if !ok {
		t.Fatal("demo sales table missing")
	}
	workingSet := int64(sales.EncodedBytes())

	paths := []struct {
		name   string
		mutate func(*Config)
	}{
		{"serial", func(cfg *Config) { cfg.Parallel = false }},
		{"parallel", func(cfg *Config) {}},
		{"distributed", func(cfg *Config) {
			cfg.Distributed = true
			cfg.Shards = 4
			cfg.Topology = "single"
		}},
	}
	budgets := []struct {
		name  string
		bytes int64
	}{
		{"unbudgeted", 0},
		{"half", workingSet / 2},
		{"tenth", workingSet / 10},
		{"one-batch", 32 << 10}, // roughly one morsel of state
	}
	for _, path := range paths {
		for _, budget := range budgets {
			eng := spillEngine(t, budget.bytes, path.mutate)
			for _, q := range spillQueries {
				res := querySpill(t, eng, q)
				expectRowsEqual(t, path.name+"/"+budget.name, ref[q].Rows, res.Rows)
				if budget.bytes == 0 || path.name == "serial" {
					if res.Spill != nil {
						t.Fatalf("%s/%s: unmetered query reported spill %+v", path.name, budget.name, res.Spill)
					}
					continue
				}
				if res.Spill == nil {
					t.Fatalf("%s/%s: budgeted query missing spill report", path.name, budget.name)
				}
				if res.Spill.Active() && res.Spill.Tier != "ssd" {
					t.Fatalf("%s/%s: spill priced against %q, want ssd", path.name, budget.name, res.Spill.Tier)
				}
			}
			// The tightest budget must actually exercise the out-of-core
			// machinery on every path — check with the group-by, whose
			// per-customer state dwarfs one batch.
			if budget.name == "one-batch" && path.name != "serial" {
				res := querySpill(t, eng, spillQueries[1])
				if !res.Spill.Active() {
					t.Fatalf("%s: one-batch budget never spilled: %+v", path.name, res.Spill)
				}
				if res.Spill.SpilledBytes <= 0 || res.Spill.WriteSeconds <= 0 || res.Spill.EnergyJ <= 0 {
					t.Fatalf("%s: degenerate spill pricing: %+v", path.name, res.Spill)
				}
			}
		}
	}
}

// TestSpillFloatAggregatesExact: a memory budget meters the aggregate
// and changes none of its arithmetic, so a Float SUM and AVG under the
// half, tenth and one-batch budgets equal the unbudgeted engine's cells
// bit for bit — compared with reflect.DeepEqual, no float tolerance — on
// the parallel engine at one and two workers and on the distributed one
// under bulk and chunked movement. The one-batch budget must spill.
func TestSpillFloatAggregatesExact(t *testing.T) {
	const q = "SELECT customer_id, SUM(price) AS revenue, AVG(discount) AS disc, COUNT(*) AS n FROM sales GROUP BY customer_id"
	sales, _ := spillEngine(t, 0, nil).Table("sales")
	workingSet := int64(sales.EncodedBytes())
	for _, path := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"workers=1", func(cfg *Config) { cfg.Workers = 1 }},
		{"workers=2", func(cfg *Config) { cfg.Workers = 2 }},
		{"dist-bulk", func(cfg *Config) { cfg.Distributed, cfg.Shards = true, 4 }},
		{"dist-chunked", func(cfg *Config) { cfg.Distributed, cfg.Shards, cfg.PipelineChunkRows = true, 4, 1024 }},
	} {
		want := querySpill(t, spillEngine(t, 0, path.mutate), q).Rows.RowView()
		for _, budget := range []struct {
			name  string
			bytes int64
		}{
			{"half", workingSet / 2},
			{"tenth", workingSet / 10},
			{"one-batch", 32 << 10},
		} {
			res := querySpill(t, spillEngine(t, budget.bytes, path.mutate), q)
			if got := res.Rows.RowView(); !reflect.DeepEqual(want, got) {
				for i := range min(len(want), len(got)) {
					if !reflect.DeepEqual(want[i], got[i]) {
						t.Fatalf("%s/%s: row %d is %v, unbudgeted %v", path.name, budget.name, i, got[i], want[i])
					}
				}
				t.Fatalf("%s/%s: %d rows, unbudgeted %d", path.name, budget.name, len(got), len(want))
			}
			if budget.name == "one-batch" && !res.Spill.Active() {
				t.Fatalf("%s: one-batch budget never spilled: %+v", path.name, res.Spill)
			}
		}
	}
}

// TestGroupedFloatSumsWorkerIndependent: a GROUP BY with many groups
// folds each group's rows in serial order whatever the worker count (the
// aggregate scatters rows to key partitions and folds each partition
// whole), so a Float SUM and AVG over 10k groups at 1, 2, 3 and 4
// workers, with no budget and at 2% of the working set, equal the
// one-worker engine's cells bit for bit — compared with
// reflect.DeepEqual, no float tolerance.
func TestGroupedFloatSumsWorkerIndependent(t *testing.T) {
	const q = "SELECT customer_id, SUM(price) AS revenue, AVG(discount) AS disc, COUNT(*) AS n FROM sales GROUP BY customer_id"
	sales, _ := spillEngine(t, 0, nil).Table("sales")
	twoPct := int64(sales.EncodedBytes() * 0.02)
	want := querySpill(t, spillEngine(t, 0, func(cfg *Config) { cfg.Workers = 1 }), q).Rows.RowView()
	for _, budget := range []int64{0, twoPct} {
		for workers := 1; workers <= 4; workers++ {
			res := querySpill(t, spillEngine(t, budget, func(cfg *Config) { cfg.Workers = workers }), q)
			if got := res.Rows.RowView(); !reflect.DeepEqual(want, got) {
				for i := range min(len(want), len(got)) {
					if !reflect.DeepEqual(want[i], got[i]) {
						t.Fatalf("workers=%d budget=%d: row %d is %v, one worker %v", workers, budget, i, got[i], want[i])
					}
				}
				t.Fatalf("workers=%d budget=%d: %d rows, one worker %d", workers, budget, len(got), len(want))
			}
			if budget > 0 && !res.Spill.Active() {
				t.Fatalf("workers=%d: a 2%% budget never spilled: %+v", workers, res.Spill)
			}
		}
	}
}

// TestSpillDistributedStats: the distributed path folds modeled tier
// I/O into QueryStats.SpillSeconds so storage time reads beside network
// time, and per-shard budgets fork from one query budget (shards spill
// independently but report one total).
func TestSpillDistributedStats(t *testing.T) {
	eng := spillEngine(t, 32<<10, func(cfg *Config) {
		cfg.Distributed = true
		cfg.Shards = 4
		cfg.Topology = "leafspine"
	})
	res := querySpill(t, eng, spillQueries[1])
	if res.Spill == nil || !res.Spill.Active() {
		t.Fatalf("expected active spill, got %+v", res.Spill)
	}
	if res.Net == nil {
		t.Fatal("distributed query missing network stats")
	}
	if want := res.Spill.WriteSeconds + res.Spill.ReadSeconds; res.Net.SpillSeconds != want {
		t.Fatalf("QueryStats.SpillSeconds = %v, want %v", res.Net.SpillSeconds, want)
	}
	if !strings.Contains(res.Net.Summary(), "spill") {
		t.Fatalf("summary omits spill line:\n%s", res.Net.Summary())
	}
}

// coordinatorQueries are the coordinator's three post-gather plans: a
// bare seq-ordered gather, ORDER BY + LIMIT over gathered rows, and
// HAVING + ORDER BY + LIMIT over merged partials (exact Int aggregates,
// as spillQueries).
var coordinatorQueries = []struct {
	name, sql string
	ordered   bool
}{
	{"unordered", "SELECT order_id, quantity FROM sales WHERE year >= 2014", false},
	{"order-limit", spillQueries[2], true},
	{"groupby-having-order", "SELECT customer_id, COUNT(*) AS n, SUM(quantity) AS qty FROM sales " +
		"GROUP BY customer_id HAVING COUNT(*) > 1 ORDER BY qty DESC, customer_id LIMIT 10", true},
}

// TestDistributedCoordinator: the coordinator is the batch engine at
// every budget. Each post-gather plan returns the serial row oracle's
// rows unbudgeted, at a tenth of the working set and at one batch; ORDER
// BY + LIMIT explains as one top-k whatever the budget; the one-batch
// group-by spills; and the modeled phases repeat exactly run over run and
// across replication factors (every host live: replicas move no query
// byte).
func TestDistributedCoordinator(t *testing.T) {
	oracle := spillEngine(t, 0, func(cfg *Config) { cfg.Parallel = false })
	sales, _ := oracle.Table("sales")
	for _, budget := range []struct {
		name  string
		bytes int64
	}{{"unbudgeted", 0}, {"tenth", int64(sales.EncodedBytes()) / 10}, {"one-batch", 32 << 10}} {
		for _, q := range coordinatorQueries {
			label := budget.name + "/" + q.name
			want := querySpill(t, oracle, q.sql)
			var phases []dist.PhaseStat
			for _, replication := range []int{0, 2} {
				eng := spillEngine(t, budget.bytes, func(cfg *Config) {
					cfg.Distributed = true
					cfg.Shards = 4
					cfg.Replication = replication
				})
				plan, err := eng.Session().Explain(q.sql)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if strings.Contains(plan, "top-k") != q.ordered || strings.Contains(plan, "sort") {
					t.Fatalf("%s: ORDER BY + LIMIT must plan as one top-k:\n%s", label, plan)
				}
				for run := 0; run < 2; run++ {
					res := querySpill(t, eng, q.sql)
					expectRowsEqual(t, label, want.Rows, res.Rows)
					if budget.name == "one-batch" && q.name == "groupby-having-order" && !res.Spill.Active() {
						t.Fatalf("%s: never spilled: %+v", label, res.Spill)
					}
					if phases == nil {
						phases = res.Net.Phases
					} else if !reflect.DeepEqual(phases, res.Net.Phases) {
						t.Fatalf("%s: replication %d run %d phases diverged:\n%+v\nvs\n%+v", label, replication, run, res.Net.Phases, phases)
					}
				}
			}
		}
	}
}

// TestSpillSessionOverride: a session can turn out-of-core execution on
// (or tighten it) against an engine whose config left it off, and pick
// its own tier; the rows still match the engine default.
func TestSpillSessionOverride(t *testing.T) {
	eng := spillEngine(t, 0, nil)
	ref := querySpill(t, eng, spillQueries[1])

	sess := eng.Session()
	sess.MemoryBudget = 32 << 10
	sess.SpillTier = "disk"
	res, err := sess.Query(context.Background(), spillQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	expectRowsEqual(t, "session budget override", ref.Rows, res.Rows)
	if res.Spill == nil || !res.Spill.Active() {
		t.Fatalf("session budget never spilled: %+v", res.Spill)
	}
	if res.Spill.Tier != "disk" {
		t.Fatalf("session tier override ignored: spilled to %q", res.Spill.Tier)
	}

	// A bare session on the same engine stays unbudgeted.
	res2 := querySpill(t, eng, spillQueries[1])
	if res2.Spill != nil {
		t.Fatalf("session budget leaked into a fresh session: %+v", res2.Spill)
	}
}

// TestSpillConfigValidation: budgets are validated at NewEngine, not
// discovered mid-query.
func TestSpillConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBudget = -1
	if _, err := NewEngine(cfg); err == nil || !strings.Contains(err.Error(), "MemoryBudget") {
		t.Fatalf("expected MemoryBudget error, got %v", err)
	}
	cfg = DefaultConfig()
	cfg.MemoryBudget = 1 << 20
	cfg.SpillTier = "tape"
	if _, err := NewEngine(cfg); err == nil || !strings.Contains(err.Error(), "tape") {
		t.Fatalf("expected unknown-tier error, got %v", err)
	}
	// DRAM is a residence tier, not a spill tier: spilling to the tier
	// you just ran out of is a config error.
	cfg.SpillTier = "dram"
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("expected dram rejection")
	}
	// A tier without a budget is harmless configuration, not an error.
	cfg = DefaultConfig()
	cfg.SpillTier = "nvm"
	if _, err := NewEngine(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSpillCostMonotone: the engine degrades gracefully instead of
// falling off a cliff — modeled spill seconds never decrease as the
// budget shrinks from unbudgeted through 50%, 10% and 2% of the working
// set, and the tightest budget does spill. One worker, so nothing races
// for the budget and the modeled floats repeat.
func TestSpillCostMonotone(t *testing.T) {
	oneWorker := func(cfg *Config) { cfg.Workers = 1 }
	sales, _ := spillEngine(t, 0, oneWorker).Table("sales")
	workingSet := sales.EncodedBytes()
	// The sort case is the un-LIMITed sort: a LIMIT 25 keeps 25 rows,
	// which fit every budget here (TestBudgetedTopKReservesOnlyKRows).
	for _, q := range []string{spillQueries[0], spillQueries[1], fullSortQuery} {
		var secs []float64
		for _, frac := range []float64{0, 0.5, 0.1, 0.02} {
			res := querySpill(t, spillEngine(t, int64(workingSet*frac), oneWorker), q)
			sec := 0.0
			if res.Spill != nil {
				sec = res.Spill.WriteSeconds + res.Spill.ReadSeconds
			}
			if len(secs) > 0 && sec < secs[len(secs)-1] {
				t.Fatalf("%s\nspill seconds not monotone as the budget shrinks: %v then %v", q, secs, sec)
			}
			secs = append(secs, sec)
		}
		if secs[len(secs)-1] <= 0 {
			t.Fatalf("%s\ntightest budget never spilled: %v", q, secs)
		}
	}
}

// TestSpillAccountingPinned: the typed out-of-core operators changed how
// spilled state is split, merged and sized, not what is spilled. At one
// worker (nothing races for the budget) and 2% of the working set, the
// spill report of a grace join, a grouped aggregate and a full sort equal
// the literals recorded on the boxed operators they replaced.
func TestSpillAccountingPinned(t *testing.T) {
	oneWorker := func(cfg *Config) { cfg.Workers = 1 }
	sales, _ := spillEngine(t, 0, oneWorker).Table("sales")
	budget := int64(sales.EncodedBytes() * 0.02)
	for _, c := range []struct {
		name, sql   string
		partitions  int
		bytes       int64
		write, read float64
	}{
		{"grace-join", spillQueries[0], 116, 915444, 0.014225148, 0.014225148},
		// No ORDER BY: the aggregate alone (under spillQueries[1] its
		// LIMIT 10 is a top-k that used to add seven sort runs).
		{"group-agg", "SELECT customer_id, COUNT(*) AS n, SUM(quantity) AS qty FROM sales GROUP BY customer_id",
			160, 1118880, 0.013172960000000001, 0.013172960000000001},
		{"full-sort", fullSortQuery, 31, 891771, 0.002777257, 0.002777257},
	} {
		res := querySpill(t, spillEngine(t, budget, oneWorker), c.sql)
		got := res.Spill
		if got == nil || got.Partitions != c.partitions || got.SpilledBytes != c.bytes ||
			got.WriteSeconds != c.write || got.ReadSeconds != c.read {
			t.Errorf("%s: spill report moved: %+v, want %d partitions, %d bytes, write %v, read %v",
				c.name, got, c.partitions, c.bytes, c.write, c.read)
		}
	}
}

// TestBudgetedTopKReservesOnlyKRows: ORDER BY + LIMIT k under a budget
// reserves the k rows it keeps, not its input. When they fit, the sort
// spills nothing — on the single-node engine and, with a shard-local
// top-k below the gather, on the distributed one — and when they do not
// (a budget smaller than k rows) the top-k keeps its heap and only prices
// the external sort its rows would have taken (BatchSort.meterRuns). The
// rows are the serial oracle's either way.
func TestBudgetedTopKReservesOnlyKRows(t *testing.T) {
	const q = "SELECT order_id, product, quantity FROM sales ORDER BY quantity DESC, order_id LIMIT 25"
	want := querySpill(t, spillEngine(t, 0, func(cfg *Config) { cfg.Parallel = false }), q)
	sales, _ := spillEngine(t, 0, nil).Table("sales")
	fits := int64(sales.EncodedBytes() * 0.02)
	for _, path := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"one-worker", func(cfg *Config) { cfg.Workers = 1 }},
		{"parallel", nil},
		{"distributed", func(cfg *Config) { cfg.Distributed, cfg.Shards = true, 4 }},
	} {
		res := querySpill(t, spillEngine(t, fits, path.mutate), q)
		expectRowsEqual(t, path.name+"/fits", want.Rows, res.Rows)
		if res.Spill == nil || res.Spill.Active() {
			t.Fatalf("%s: a top-k of 25 rows spilled under a %d-byte budget: %+v", path.name, fits, res.Spill)
		}
		// 25 rows are some 900 bytes: 256 bytes hold a few of them.
		res = querySpill(t, spillEngine(t, 256, path.mutate), q)
		expectRowsEqual(t, path.name+"/degraded", want.Rows, res.Rows)
		if !res.Spill.Active() {
			t.Fatalf("%s: a budget below k rows never went external: %+v", path.name, res.Spill)
		}
	}
}
