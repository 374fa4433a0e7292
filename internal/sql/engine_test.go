package sql

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func demoEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(eng, 11, 3000, 80)
	return eng
}

// TestNewEngineValidates: configuration errors surface at construction,
// not at the first query.
func TestNewEngineValidates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DistJoin = "teleport"
	if _, err := NewEngine(cfg); err == nil || !strings.Contains(err.Error(), "DistJoin") {
		t.Fatalf("expected DistJoin error, got %v", err)
	}
	cfg = DefaultConfig()
	cfg.Distributed = true
	cfg.Topology = "moebius"
	if _, err := NewEngine(cfg); err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Fatalf("expected topology error, got %v", err)
	}
}

// TestSessionQueryResult: a Result bundles rows, plan text, operator
// stats and (distributed only) network stats.
func TestSessionQueryResult(t *testing.T) {
	eng := demoEngine(t, DefaultConfig())
	q := "SELECT region, COUNT(*) AS n FROM sales GROUP BY region ORDER BY n DESC"
	res, err := eng.Session().Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() == 0 || len(res.Steps) == 0 {
		t.Fatalf("incomplete result: %d rows, %d steps", res.Rows.Len(), len(res.Steps))
	}
	if !strings.Contains(res.Explain(), "aggregate") {
		t.Fatalf("plan text missing aggregate step:\n%s", res.Explain())
	}
	scan, ok := res.Ops["scan:sales"]
	if !ok || scan.RowsOut == 0 {
		t.Fatalf("missing scan stats: %+v", res.Ops)
	}
	if res.Net != nil {
		t.Fatal("single-node result must not carry net stats")
	}
	if got := res.Columns(); len(got) != 2 || got[0] != "region" {
		t.Fatalf("columns = %v", got)
	}

	dcfg := DefaultConfig()
	dcfg.Distributed = true
	dres, err := demoEngine(t, dcfg).Session().Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Net == nil || dres.Net.NetSeconds <= 0 {
		t.Fatalf("distributed result missing net stats: %+v", dres.Net)
	}
	expectRowsEqual(t, "distributed session vs single-node", res.Rows, dres.Rows)
}

// TestPreparedStmtReexecutes: the prepared-statement acceptance
// criterion — one Prepare, at least three Execs, correct rows and fresh
// (non-accumulating) stats every run.
func TestPreparedStmtReexecutes(t *testing.T) {
	for _, distributed := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Distributed = distributed
		cfg.Shards = 4
		eng := demoEngine(t, cfg)
		sess := eng.Session()
		q := "SELECT c.segment, SUM(s.price) AS total FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY total DESC"
		stmt, err := sess.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if stmt.Text() != q {
			t.Fatalf("stmt text = %q", stmt.Text())
		}
		var first *Result
		for run := 0; run < 3; run++ {
			res, err := stmt.Exec(context.Background())
			if err != nil {
				t.Fatalf("dist=%v run %d: %v", distributed, run, err)
			}
			if run == 0 {
				first = res
				continue
			}
			expectRowsEqual(t, "prepared re-execution", first.Rows, res.Rows)
			// Stats must be fresh per run, not accumulated across runs.
			if res.Ops["scan:s"].RowsOut != first.Ops["scan:s"].RowsOut {
				t.Fatalf("dist=%v run %d: stale stats: %d vs %d rows scanned",
					distributed, run, res.Ops["scan:s"].RowsOut, first.Ops["scan:s"].RowsOut)
			}
			if distributed {
				if res.Net == nil || res.Net.NetSeconds != first.Net.NetSeconds ||
					res.Net.BytesShuffled != first.Net.BytesShuffled || len(res.Net.Phases) != len(first.Net.Phases) {
					t.Fatalf("dist run %d: net stats not fresh/reproducible: %+v vs %+v", run, res.Net, first.Net)
				}
			}
		}
	}
}

// TestPrepareValidatesEagerly: resolution errors surface at Prepare.
func TestPrepareValidatesEagerly(t *testing.T) {
	eng := demoEngine(t, DefaultConfig())
	if _, err := eng.Session().Prepare("SELECT x FROM missing"); err == nil ||
		!strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("expected unknown table at Prepare, got %v", err)
	}
}

// TestPlannedSpent: running a Planned a second time must report
// ErrPlanSpent instead of silently re-draining spent operators (and,
// distributed, keeping stale NetStats).
func TestPlannedSpent(t *testing.T) {
	for _, distributed := range []bool{false, true} {
		db := demoDB(11, 1000, 40)
		db.Opt.Distributed = distributed
		plan, err := db.Plan("SELECT region, COUNT(*) FROM sales GROUP BY region")
		if err != nil {
			t.Fatal(err)
		}
		first, err := plan.Run()
		if err != nil || first.Len() == 0 {
			t.Fatalf("dist=%v: first execution failed: %v", distributed, err)
		}
		if !reflect.DeepEqual(first.Schema, plan.Schema) {
			t.Fatalf("dist=%v: plan schema %v, result schema %v", distributed, plan.Schema, first.Schema)
		}
		if rel, err := plan.Run(); rel != nil || !errors.Is(err, ErrPlanSpent) {
			t.Fatalf("dist=%v: expected ErrPlanSpent on re-execution, got rows=%v err=%v", distributed, rel, err)
		}
	}
}

// TestPlannedSpentAfterError: a plan whose execution failed mid-stream
// must stay failed — running it again reports the original error instead
// of silently resuming the half-drained tree — on the row engine, the
// batch engine and a distributed run.
func TestPlannedSpentAfterError(t *testing.T) {
	for name, set := range map[string]func(*Config){
		"serial":      func(c *Config) { c.Parallel = false },
		"batch":       func(*Config) {},
		"distributed": func(c *Config) { c.Distributed = true },
	} {
		db := demoDB(11, 1000, 40)
		set(&db.Opt)
		plan, err := db.Plan("SELECT price / (quantity - quantity) FROM sales")
		if err != nil {
			t.Fatal(err)
		}
		_, first := plan.Run()
		if first == nil || !strings.Contains(first.Error(), "division by zero") {
			t.Fatalf("%s: expected division by zero, got %v", name, first)
		}
		if rel, err := plan.Run(); rel != nil || err != first {
			t.Fatalf("%s: retry must report the original failure, got rows=%v err=%v", name, rel, err)
		}
		if plan.NetStats() != nil {
			t.Fatalf("%s: failed run reported network stats", name)
		}
	}
}

// TestSessionOverrides: per-session knobs shape that session's plans
// without touching the engine config or sibling sessions.
func TestSessionOverrides(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 4
	eng := demoEngine(t, cfg)
	q := "SELECT c.segment, COUNT(*) AS n FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment"
	phaseNames := func(distJoin string) string {
		s := eng.Session()
		s.DistJoin = distJoin
		res, err := s.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, ph := range res.Net.Phases {
			names = append(names, ph.Name)
		}
		return strings.Join(names, ",")
	}
	bcast, repart := phaseNames("broadcast"), phaseNames("repartition")
	if !strings.Contains(bcast, "broadcast") || !strings.Contains(repart, "shuffle") {
		t.Fatalf("session overrides ignored: broadcast session ran %q, repartition session ran %q", bcast, repart)
	}
	if got := eng.Config().DistJoin; got != "" {
		t.Fatalf("engine config mutated by session override: %q", got)
	}
}
