package lifecycle

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/relational"
)

func newTestManager(t *testing.T, replication int, plan *FaultPlan) *Manager {
	t.Helper()
	c, err := dist.NewCluster("leafspine", 4)
	if err != nil {
		t.Fatal(err)
	}
	bytes := func() []float64 { return []float64{1000, 2000, 3000, 4000} }
	m, err := NewManager(dist.NewFabric(c), replication, plan, bytes)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPlacementStaticIdentity: with every host live, the elastic
// placement must equal the static one — shard s's primary is worker s —
// at every replication factor. This is what lets every distributed
// query run through the Guard: fault-free, it charges the flows the
// static placement would.
func TestPlacementStaticIdentity(t *testing.T) {
	for _, r := range []int{1, 2, 3, 4} {
		m := newTestManager(t, r, nil)
		c := m.fab.Cluster()
		for s := 0; s < m.Shards(); s++ {
			w, err := m.PrimaryWorker(s)
			if err != nil {
				t.Fatal(err)
			}
			if w != s {
				t.Fatalf("replication %d: shard %d primary = worker %d, want %d", r, s, w, s)
			}
			if got := m.HostFor(s); got != c.Workers[s] {
				t.Fatalf("replication %d: shard %d resolves to host %d, want %d", r, s, got, c.Workers[s])
			}
		}
		if got := m.HostFor(dist.Coordinator); got != c.Coord {
			t.Fatalf("coordinator resolves to %d, want %d", got, c.Coord)
		}
	}
}

// TestReplicationBounds: R is clamped below and rejected above the
// shard count.
func TestReplicationBounds(t *testing.T) {
	if m := newTestManager(t, 0, nil); m.Replication() != 1 {
		t.Fatalf("replication 0 clamps to 1, got %d", m.Replication())
	}
	c, err := dist.NewCluster("leafspine", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(dist.NewFabric(c), 5, nil, nil); err == nil {
		t.Fatal("replication 5 over 4 shards must be rejected")
	}
}

// TestDrainRestoreJoin: draining a worker moves its shards' bytes over
// the fabric and re-primaries them elsewhere; restore moves them back;
// join annexes a spare host as a fresh worker.
func TestDrainRestoreJoin(t *testing.T) {
	m := newTestManager(t, 2, nil)
	if err := m.DrainWorker(1); err != nil {
		t.Fatal(err)
	}
	h := m.Health()
	if h.Drained != 1 || h.Live != 3 || h.RebalancedBytes <= 0 || h.RebalanceSeconds <= 0 {
		t.Fatalf("drain health: %+v", h)
	}
	if w, err := m.PrimaryWorker(1); err != nil || w == 1 {
		t.Fatalf("shard 1 primary after drain = %d, %v; want a live worker != 1", w, err)
	}
	if err := m.DrainWorker(1); err == nil {
		t.Fatal("double drain must be refused")
	}

	if err := m.RestoreWorker(1); err != nil {
		t.Fatal(err)
	}
	if w, err := m.PrimaryWorker(1); err != nil || w != 1 {
		t.Fatalf("shard 1 primary after restore = %d, %v; want 1", w, err)
	}

	before := m.Health()
	nw, err := m.JoinHost()
	if err != nil {
		t.Fatal(err)
	}
	after := m.Health()
	if nw != 4 || after.Workers != before.Workers+1 || after.Spares != before.Spares-1 {
		t.Fatalf("join: new worker %d, health %+v -> %+v", nw, before, after)
	}
	if after.Generation <= before.Generation {
		t.Fatalf("join did not bump the generation: %d -> %d", before.Generation, after.Generation)
	}
}

// TestDrainLastLiveRefused: the last live worker cannot be drained —
// there would be nowhere to put the shards.
func TestDrainLastLiveRefused(t *testing.T) {
	m := newTestManager(t, 2, nil)
	for _, w := range []int{0, 1, 2} {
		if err := m.DrainWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DrainWorker(3); err == nil {
		t.Fatal("draining the last live worker must be refused")
	}
}

// TestKillRepairsReplication: killing a worker under replication 2
// re-primaries its shard onto a surviving replica, re-replicates to
// restore R, and reports the remapped shard; under replication 1 the
// same kill loses the shard and fails loudly.
func TestKillRepairsReplication(t *testing.T) {
	m := newTestManager(t, 2, nil)
	deadNode, remapped, err := m.Kill(1)
	if err != nil {
		t.Fatal(err)
	}
	if wantNode := m.fab.Cluster().Workers[1]; deadNode != wantNode {
		t.Fatalf("dead node %d, want %d", deadNode, wantNode)
	}
	if !reflect.DeepEqual(remapped, []int{1}) {
		t.Fatalf("remapped %v, want [1]", remapped)
	}
	h := m.Health()
	if h.Dead != 1 || h.Repairs == 0 || h.RepairBytes <= 0 {
		t.Fatalf("kill health: %+v", h)
	}
	if w, err := m.PrimaryWorker(1); err != nil || w == 1 {
		t.Fatalf("shard 1 primary after kill = %d, %v", w, err)
	}

	solo := newTestManager(t, 1, nil)
	if _, _, err := solo.Kill(1); err == nil || !strings.Contains(err.Error(), "lost every replica") {
		t.Fatalf("replication-1 kill: %v, want lost-replica error", err)
	}
}

// TestDegradeBounds: degrading an unknown worker fails; a live one
// succeeds and bumps nothing but the topology.
func TestDegradeBounds(t *testing.T) {
	m := newTestManager(t, 2, nil)
	if err := m.DegradeWorker(9, 10); err == nil {
		t.Fatal("degrading an out-of-range worker must fail")
	}
	if err := m.DegradeWorker(2, 10); err != nil {
		t.Fatal(err)
	}
}

// TestClaimEventsFireOnce: a fault event is claimed by the first query
// reaching its ordinal and never fires again.
func TestClaimEventsFireOnce(t *testing.T) {
	plan := &FaultPlan{Events: []Event{
		{Kind: EventKill, Worker: 1, Phase: 0, Frac: 0.5},
		{Kind: EventSlow, Worker: 2, Phase: 0, Factor: 4},
	}}
	m := newTestManager(t, 2, plan)
	if evs := m.claimPhaseEvents(0); len(evs) != 1 || evs[0].Kind != EventKill {
		t.Fatalf("first claim: %+v", evs)
	}
	if evs := m.claimPhaseEvents(0); len(evs) != 0 {
		t.Fatalf("second claim re-fired: %+v", evs)
	}
	if slow := m.claimSlowEvents(0); len(slow) != 1 || slow[2] != 4 {
		t.Fatalf("slow claim: %+v", slow)
	}
	if slow := m.claimSlowEvents(0); len(slow) != 0 {
		t.Fatalf("slow re-fired: %+v", slow)
	}
	if h := m.Health(); h.EventsFired != 2 || h.EventsTotal != 2 {
		t.Fatalf("events health: %+v", h)
	}
}

// TestParsePlanRoundTrip: the grammar parses, bounds-checks, and
// round-trips through String.
func TestParsePlanRoundTrip(t *testing.T) {
	spec := "kill:1@0:0.5,slow:2@1:4,degrade:0@2:10,partition:3@0"
	plan, err := ParsePlan(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.String(); got != spec {
		t.Fatalf("round-trip: %q != %q", got, spec)
	}
	if p, err := ParsePlan("", 4); p != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", p, err)
	}
	for _, bad := range []string{"kill:9@0", "kill:1", "explode:1@0", "slow:1@0:-2", "seed:x"} {
		if _, err := ParsePlan(bad, 4); err == nil {
			t.Fatalf("%q must be rejected", bad)
		}
	}
}

// TestSeededDeterministic: the same seed yields the same schedule.
func TestSeededDeterministic(t *testing.T) {
	a, b := Seeded(7, 4), Seeded(7, 4)
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatalf("seed 7 diverged:\n%+v\n%+v", a.Events, b.Events)
	}
	p, err := ParsePlan("seed:7", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Events, a.Events) {
		t.Fatalf("seed:7 spec != Seeded(7): %+v vs %+v", p.Events, a.Events)
	}
	for _, ev := range a.Events {
		if ev.Worker < 0 || ev.Worker >= 4 {
			t.Fatalf("seeded worker out of range: %+v", ev)
		}
	}
}

// TestSpeculativePairKeepsWinner drives the guarded fragment round with a
// counting sink: a straggling shard's round runs as a pair whose winner is
// the only output kept and the only bytes priced, a round with no event is
// the same fan-out charging nothing, and one shard's failure comes back as
// the round's error.
func TestSpeculativePairKeepsWinner(t *testing.T) {
	plan := &FaultPlan{
		Events:         []Event{{Kind: EventSlow, Worker: 1, Phase: 0, Factor: 4}},
		StragglerDelay: time.Second, // ×4: only a cancelled gate returns in time
		SpecThreshold:  time.Millisecond,
	}
	m := newTestManager(t, 2, plan)
	qr := m.fab.NewQuery()
	defer qr.Close()
	g := m.NewGuard(qr)

	schema := relational.Schema{{Name: "k", Type: relational.Int}}
	shard := func(s int) *relational.Relation {
		ks := make([]int64, 100*(s+1))
		for i := range ks {
			ks[i] = int64(s)
		}
		return relational.NewColumnRelation("t", schema, []relational.Vector{{T: relational.Int, Ints: ks}}, len(ks))
	}
	build := func(s int) (relational.BatchOp, error) { return relational.NewBatchScan(shard(s)), nil }
	var sinkRuns [4]atomic.Int32
	sink := func(s int, op relational.BatchOp) (*relational.Relation, error) {
		sinkRuns[s].Add(1)
		return dist.DrainSink("frag", 1)(s, op)
	}

	start := time.Now()
	outs, err := runRound(g, 4, build, sink)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > plan.StragglerDelay {
		t.Fatalf("round waited %v for the straggler instead of its duplicate", took)
	}
	for s, rel := range outs {
		if rel.Len() != 100*(s+1) || rel.Columnar()[0].Ints[0] != int64(s) {
			t.Fatalf("shard %d: %d rows of %v", s, rel.Len(), rel.Columnar()[0].Ints[:1])
		}
		// The straggler's primary was cancelled at its gate: only the
		// duplicate reached the sink.
		if n := sinkRuns[s].Load(); n != 1 {
			t.Fatalf("shard %d ran its sink %d times", s, n)
		}
	}
	// A second round finds the event fired: no pair, nothing charged.
	if _, err := runRound(g, 4, build, sink); err != nil {
		t.Fatal(err)
	}
	// One failing shard fails the round.
	boom := errors.New("shard 2 failed")
	if outs, err := runRound(g, 4, build, func(s int, op relational.BatchOp) (*relational.Relation, error) {
		if s == 2 {
			return nil, boom
		}
		return sink(s, op)
	}); outs != nil || !errors.Is(err, boom) {
		t.Fatalf("failing shard: outs=%v err=%v", outs, err)
	}
	qs := qr.Finish()
	if want := outs[1].EncodedBytes() / dist.ChunkComputeBytesPerSec; qs.SpeculativeWins != 1 || qs.RecoverySeconds != want {
		t.Fatalf("%d wins, %v recovery seconds; want 1 win priced at the winner's bytes, %v", qs.SpeculativeWins, qs.RecoverySeconds, want)
	}
	if h := m.Health(); h.EventsFired != 1 {
		t.Fatalf("%d events fired", h.EventsFired)
	}
}
