package sql

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/lifecycle"
)

const chaosQuery = "SELECT c.segment, COUNT(*) AS n, SUM(s.price) AS v " +
	"FROM sales s JOIN customers c ON s.customer_id = c.customer_id " +
	"GROUP BY c.segment ORDER BY v DESC"

// chaosEngine builds a 4-shard repartition-join engine with the given
// replication factor and fault schedule ("" = none).
func chaosEngine(t *testing.T, replication int, chaos string) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 4
	cfg.Topology = "leafspine"
	cfg.DistJoin = "repartition"
	cfg.Replication = replication
	if chaos != "" {
		plan, err := lifecycle.ParsePlan(chaos, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(eng, 7, 8000, 200)
	return eng
}

func chaosRun(t *testing.T, eng *Engine) *Result {
	t.Helper()
	res, err := eng.Session().Query(context.Background(), chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChaosKillMidShuffleParity is the headline: kill a worker halfway
// through the shuffle on a replication-2 cluster. The rows must be
// identical to the failure-free run, the stats must price the recovery
// (retried fragments, nonzero modeled recovery seconds), and no
// goroutine may outlive the query.
func TestChaosKillMidShuffleParity(t *testing.T) {
	baseline := runtime.NumGoroutine()
	clean := chaosRun(t, chaosEngine(t, 2, ""))
	killed := chaosRun(t, chaosEngine(t, 2, "kill:1@0:0.5"))
	if !reflect.DeepEqual(killed.Rows.RowView(), clean.Rows.RowView()) {
		t.Fatalf("kill changed the rows:\n%v\nvs\n%v", killed.Rows.RowView(), clean.Rows.RowView())
	}
	if killed.Net.RetriedFragments == 0 {
		t.Fatal("kill run retried no fragments")
	}
	if killed.Net.RecoverySeconds <= 0 {
		t.Fatalf("kill run modeled no recovery cost: %v", killed.Net.RecoverySeconds)
	}
	if clean.Net.RetriedFragments != 0 || clean.Net.RecoverySeconds != 0 {
		t.Fatalf("clean run reported recovery: %+v", clean.Net)
	}
	// The faulted run re-ships lost data in a recover: phase.
	found := false
	for _, p := range killed.Net.Phases {
		if strings.HasPrefix(p.Name, "recover:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no recover: phase in %+v", killed.Net.Phases)
	}
	settleGoroutines(t, "chaos-kill", baseline)
}

// TestChaosReplicationOneKillFails: the identical kill without replicas
// loses the shard and must fail loudly, naming the loss.
func TestChaosReplicationOneKillFails(t *testing.T) {
	eng := chaosEngine(t, 1, "kill:1@0:0.5")
	_, err := eng.Session().Query(context.Background(), chaosQuery)
	if err == nil || !strings.Contains(err.Error(), "lost every replica") {
		t.Fatalf("replication-1 kill: %v, want lost-replica error", err)
	}
	// The failure is contained: a fresh fault-free engine on the same
	// process serves the query.
	if res := chaosRun(t, chaosEngine(t, 1, "")); res.Rows.Len() == 0 {
		t.Fatal("fault-free engine returned no rows")
	}
}

// TestChaosSpeculation: a worker straggling past the speculation
// threshold gets a duplicate fragment; the duplicate wins, the rows are
// unchanged, and the win is measured.
func TestChaosSpeculation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	clean := chaosRun(t, chaosEngine(t, 2, ""))
	slow := chaosRun(t, chaosEngine(t, 2, "slow:2@0:4"))
	if !reflect.DeepEqual(slow.Rows.RowView(), clean.Rows.RowView()) {
		t.Fatalf("speculation changed the rows:\n%v\nvs\n%v", slow.Rows.RowView(), clean.Rows.RowView())
	}
	if slow.Net.SpeculativeWins == 0 {
		t.Fatal("straggler produced no speculative wins")
	}
	if slow.Net.RecoverySeconds <= 0 {
		t.Fatal("speculative duplicate's compute was not priced")
	}
	settleGoroutines(t, "chaos-speculation", baseline)
}

// TestSlowFaultReachesAggregateRound: the partial-aggregate round is a
// fragment round like any other — it claims the next round ordinal after
// every earlier one — so a slow: event scheduled on it lands, the
// straggling shard's fold is speculated, and the win and the duplicated
// compute are measured. A single-table GROUP BY has no earlier round (its
// scan fuses into the fold), the join runs one round per leg first.
func TestSlowFaultReachesAggregateRound(t *testing.T) {
	for _, c := range []struct{ name, query, chaos string }{
		{"group-by", "SELECT region, COUNT(*) AS n, SUM(price) AS v FROM sales GROUP BY region", "slow:1@0:4"},
		{"join", chaosQuery, "slow:1@2:4"},
	} {
		t.Run(c.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			run := func(chaos string) (*Engine, *Result) {
				eng := chaosEngine(t, 2, chaos)
				res, err := eng.Session().Query(context.Background(), c.query)
				if err != nil {
					t.Fatal(err)
				}
				return eng, res
			}
			_, clean := run("")
			eng, slow := run(c.chaos)
			if h := eng.Lifecycle().Health(); h.EventsFired != 1 || h.EventsTotal != 1 {
				t.Fatalf("%s fired %d of %d events", c.chaos, h.EventsFired, h.EventsTotal)
			}
			if slow.Net.SpeculativeWins < 1 || slow.Net.RecoverySeconds <= 0 {
				t.Fatalf("straggling aggregate round was not speculated: %d wins, %v recovery seconds",
					slow.Net.SpeculativeWins, slow.Net.RecoverySeconds)
			}
			if clean.Rows.Len() == 0 || !reflect.DeepEqual(slow.Rows.RowView(), clean.Rows.RowView()) {
				t.Fatalf("speculation changed the rows:\n%v\nvs\n%v", slow.Rows.RowView(), clean.Rows.RowView())
			}
			if clean.Net.SpeculativeWins != 0 || clean.Net.RecoverySeconds != 0 {
				t.Fatalf("clean run reported recovery: %+v", clean.Net)
			}
			settleGoroutines(t, "slow-aggregate-"+c.name, baseline)
		})
	}
}

// TestChaosKillOnEmptyBulkPhase: a movement phase with nothing to move
// still claims its phase ordinal on the bulk engine — there is no chunk to
// admit, and the phase is admitted (and recorded, with no flow) all the
// same — so a kill scheduled on it lands: the event fires, the worker dies,
// its fragments are re-dispatched, and the (empty) rows are the clean
// run's. The empty shuffle, the empty partial-aggregate gather behind it
// and the empty seq-merge gather are the three shapes of "no chunk".
func TestChaosKillOnEmptyBulkPhase(t *testing.T) {
	const emptyJoin = "SELECT c.segment, COUNT(*) AS n FROM sales s JOIN customers c ON s.customer_id = c.customer_id " +
		"WHERE s.price < 0 AND c.customer_id < 0 GROUP BY c.segment"
	for _, c := range []struct{ name, query, chaos, phase string }{
		{"shuffle", emptyJoin, "kill:1@0", "shuffle#0"},
		{"partial-gather", emptyJoin, "kill:1@1", "gather"},
		{"seq-gather", "SELECT order_id FROM sales WHERE price < 0", "kill:1@0", "gather"},
	} {
		eng := chaosEngine(t, 2, c.chaos)
		if eng.Config().PipelineChunkRows != 0 {
			t.Fatal("chaosEngine is no longer the bulk engine")
		}
		res, err := eng.Session().Query(context.Background(), c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Rows.Len() != 0 {
			t.Fatalf("%s: %d rows from an empty input", c.name, res.Rows.Len())
		}
		h := eng.Lifecycle().Health()
		if h.EventsFired != 1 || h.EventsTotal != 1 || h.Dead != 1 {
			t.Fatalf("%s: %s fired %d of %d events, %d dead — the empty phase did not claim its ordinal",
				c.name, c.chaos, h.EventsFired, h.EventsTotal, h.Dead)
		}
		if res.Net.RetriedFragments == 0 {
			t.Fatalf("%s: the kill re-dispatched no fragment", c.name)
		}
		found := false
		for _, p := range res.Net.Phases {
			if p.Name == c.phase {
				found = true
				if p.Flows != 0 || p.Bytes != 0 || p.Chunks != 0 {
					t.Fatalf("%s: phase %s was meant to be empty: %+v", c.name, c.phase, p)
				}
			}
		}
		if !found {
			t.Fatalf("%s: no %s phase recorded in %+v", c.name, c.phase, res.Net.Phases)
		}
	}
}

// TestChaosBitIdenticalReplay: with faults off, replication must be
// invisible — replication 2 with every host live places shards exactly
// where one copy per shard does. Rows and every network float must match
// the default engine bit for bit. A slow: event adds the speculative path:
// the duplicate fragment moves no byte, so the same floats hold, and the
// duplicated compute it prices — the straggling shard's encoded fragment
// output — is the figure recorded when that output was still rows.
func TestChaosBitIdenticalReplay(t *testing.T) {
	ref := chaosRun(t, chaosEngine(t, 0, ""))
	for _, c := range []struct {
		replication int
		chaos       string
		recovery    float64
	}{{1, "", 0}, {2, "", 0}, {2, "slow:2@0:4", 1.210719347000122e-05}} {
		res := chaosRun(t, chaosEngine(t, c.replication, c.chaos))
		if !reflect.DeepEqual(res.Rows.RowView(), ref.Rows.RowView()) {
			t.Fatalf("replication %d %q changed the rows", c.replication, c.chaos)
		}
		a, b := res.Net, ref.Net
		if a.NetSeconds != b.NetSeconds || a.BytesShuffled != b.BytesShuffled || a.Flows != b.Flows {
			t.Fatalf("replication %d %q diverged from the default engine: {%v %v %d} vs {%v %v %d}",
				c.replication, c.chaos, a.NetSeconds, a.BytesShuffled, a.Flows, b.NetSeconds, b.BytesShuffled, b.Flows)
		}
		if a.RecoverySeconds != c.recovery {
			t.Fatalf("replication %d %q priced recovery at %v, want %v", c.replication, c.chaos, a.RecoverySeconds, c.recovery)
		}
	}
}

// TestChaosDegradeAndPartition: degraded links slow the query down
// without changing its rows; a partition slows it down much more.
func TestChaosDegradeAndPartition(t *testing.T) {
	clean := chaosRun(t, chaosEngine(t, 2, ""))
	degraded := chaosRun(t, chaosEngine(t, 2, "degrade:3@0:10"))
	parted := chaosRun(t, chaosEngine(t, 2, "partition:3@0"))
	for name, res := range map[string]*Result{"degrade": degraded, "partition": parted} {
		if !reflect.DeepEqual(res.Rows.RowView(), clean.Rows.RowView()) {
			t.Fatalf("%s changed the rows", name)
		}
		if res.Net.NetSeconds <= clean.Net.NetSeconds {
			t.Fatalf("%s did not slow the query: %v vs clean %v", name, res.Net.NetSeconds, clean.Net.NetSeconds)
		}
	}
	if parted.Net.NetSeconds <= degraded.Net.NetSeconds {
		t.Fatalf("partition (%v) should cost more than a 10x degrade (%v)",
			parted.Net.NetSeconds, degraded.Net.NetSeconds)
	}
}

// TestChaosDrainJoinRebalance is membership on every engine shape,
// failure modes first: a single-node engine has no hosts to drain,
// restore or join; a cluster refuses unknown workers and restoring a
// worker that is not drained. Then, replicated or not, draining a worker
// moves its resident shard bytes over the fabric and leaves queries
// correct, joining annexes a spare host, and restore brings the worker
// back.
func TestChaosDrainJoinRebalance(t *testing.T) {
	single, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if single.Lifecycle() != nil {
		t.Fatal("single-node engine has a cluster manager")
	}
	_, joinErr := single.JoinHost()
	for name, err := range map[string]error{"drain": single.DrainHost(0), "restore": single.RestoreHost(0), "join": joinErr} {
		if err == nil {
			t.Fatalf("single-node engine must refuse %s", name)
		}
	}

	for _, replication := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("replication=%d", replication), func(t *testing.T) {
			eng := chaosEngine(t, replication, "")
			for _, w := range []int{-1, 4} {
				if eng.DrainHost(w) == nil || eng.RestoreHost(w) == nil {
					t.Fatalf("unknown worker %d accepted", w)
				}
			}
			if eng.RestoreHost(1) == nil {
				t.Fatal("restored a worker that was never drained")
			}
			clean := chaosRun(t, eng) // also shards the tables so a drain has bytes to move
			if err := eng.DrainHost(1); err != nil {
				t.Fatal(err)
			}
			h := eng.Lifecycle().Health()
			if h.Drained != 1 || h.RebalancedBytes <= 0 {
				t.Fatalf("drain health: %+v", h)
			}
			if res := chaosRun(t, eng); !reflect.DeepEqual(res.Rows.RowView(), clean.Rows.RowView()) {
				t.Fatal("drained cluster changed the rows")
			}
			if w, err := eng.JoinHost(); err != nil || w != 4 {
				t.Fatalf("join: worker %d, %v", w, err)
			}
			if err := eng.RestoreHost(1); err != nil {
				t.Fatal(err)
			}
			if res := chaosRun(t, eng); !reflect.DeepEqual(res.Rows.RowView(), clean.Rows.RowView()) {
				t.Fatal("grown-and-restored cluster changed the rows")
			}
		})
	}
}

// TestChaosConfigValidation: the lifecycle knobs reject nonsense.
func TestChaosConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replication = 2
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("replication without Distributed must be rejected")
	}
	cfg = DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 4
	cfg.Replication = -1
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("negative replication must be rejected")
	}
	cfg = DefaultConfig()
	cfg.Faults = &lifecycle.FaultPlan{Events: []lifecycle.Event{{Kind: lifecycle.EventKill, Worker: 0}}}
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("faults without Distributed must be rejected")
	}
}

// TestChaosNonFiniteDegradeFails: a degrade event built around the grammar
// (which refuses it) with a non-finite factor fails the query with an
// error naming the factor — it neither hangs the admission round (NaN)
// nor panics it with zero-speed links (+Inf).
func TestChaosNonFiniteDegradeFails(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1)} {
		cfg := DefaultConfig()
		cfg.Distributed = true
		cfg.Shards = 4
		cfg.Replication = 2
		cfg.Faults = &lifecycle.FaultPlan{Events: []lifecycle.Event{{Kind: lifecycle.EventDegrade, Factor: f}}}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		RegisterDemo(eng, 7, 2000, 100)
		done := make(chan error, 1)
		go func() {
			_, err := eng.Session().Query(context.Background(), chaosQuery)
			done <- err
		}()
		select {
		case err := <-done:
			if want := fmt.Sprintf("factor %g is not finite", f); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("degrade by %g: %v, want an error containing %q", f, err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("degrade by %g: the query hung", f)
		}
	}
}

// TestChaosUnderflowingDegradeFails: finite degrade factors that together
// underflow a worker's access links to zero speed fail the query with an
// error naming the worker and the factor. Before the refusal, the zero
// speed stranded the phase's flows and panicked the shared simulator.
func TestChaosUnderflowingDegradeFails(t *testing.T) {
	for _, spec := range []string{
		"degrade:3@0:1e300,degrade:3@1:1e300",
		"degrade:1@0:1e200,degrade:1@0:1e200",
	} {
		eng := chaosEngine(t, 2, spec)
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("panic: %v", r)
				}
			}()
			_, err := eng.Session().Query(context.Background(), chaosQuery)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "degrade worker") || !strings.Contains(err.Error(), "factor 1e+") {
				t.Fatalf("%s: %v, want an error naming the worker and factor", spec, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the query hung", spec)
		}
	}
}
