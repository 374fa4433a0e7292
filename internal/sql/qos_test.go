package sql

import (
	"context"
	"sync"
	"testing"

	"repro/internal/sdn"
)

// QoS acceptance suite for the control-plane API: session weights must
// shape per-query network time under contention without perturbing
// results, and the nil-controller/uniform-weight path must replay the
// pre-control-plane engine bit-identically.

// TestWeightedSessionDegradesLess is the headline acceptance criterion:
// two concurrent sessions running the same query at weights 3:1 on a
// congested single-switch fabric. The weighted session's flows receive
// three times the bandwidth on every shared bottleneck, so its
// per-query net time is measurably lower than its best-effort peer's —
// and both row sets stay row-for-row identical to single-node
// execution.
func TestWeightedSessionDegradesLess(t *testing.T) {
	refEng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(refEng, 31, 6000, 150)
	refEng.Register(productsRelation())
	ref, err := refEng.Session().Query(context.Background(), concQueryB)
	if err != nil {
		t.Fatal(err)
	}

	eng := concEngine(t)
	eng.Fabric().Expect(2)
	gold := eng.Session()
	gold.Priority = "interactive"
	gold.Weight = 3
	be := eng.Session()
	be.Priority = "batch"
	be.Weight = 1
	var wg sync.WaitGroup
	var resGold, resBE *Result
	var errGold, errBE error
	wg.Add(2)
	go func() { defer wg.Done(); resGold, errGold = gold.Query(context.Background(), concQueryB) }()
	go func() { defer wg.Done(); resBE, errBE = be.Query(context.Background(), concQueryB) }()
	wg.Wait()
	if errGold != nil || errBE != nil {
		t.Fatalf("weighted queries failed: %v / %v", errGold, errBE)
	}

	expectRowsEqual(t, "weighted session vs single-node", ref.Rows, resGold.Rows)
	expectRowsEqual(t, "best-effort session vs single-node", ref.Rows, resBE.Rows)

	// Identical queries, identical data, one shared fabric: only the
	// weights differ, so the 3x session must finish its network phases
	// measurably sooner. (With weights 3:1 on every shared bottleneck
	// the gold session's phase rates are 3x, so its net time is well
	// under 2/3 of the peer's; assert a conservative margin.)
	if resGold.Net.NetSeconds >= resBE.Net.NetSeconds*0.75 {
		t.Fatalf("weight-3 session must degrade measurably less: %.6fs vs peer %.6fs",
			resGold.Net.NetSeconds, resBE.Net.NetSeconds)
	}

	// The per-query admission report carries the QoS identity.
	if resGold.Net.Adm.Weight != 3 || resGold.Net.Adm.Class != "interactive" {
		t.Fatalf("gold admission stats: %+v", resGold.Net.Adm)
	}
	if resGold.Net.Adm.RoundsJoined == 0 || resBE.Net.Adm.RoundsJoined == 0 {
		t.Fatalf("rounds joined: %d / %d", resGold.Net.Adm.RoundsJoined, resBE.Net.Adm.RoundsJoined)
	}

	// The fabric aggregate attributes bytes per class.
	fab := eng.Fabric().Stats().Admission
	if fab.ClassBytes["interactive"] != resGold.Net.BytesShuffled {
		t.Fatalf("interactive class bytes %.0f, want %.0f", fab.ClassBytes["interactive"], resGold.Net.BytesShuffled)
	}
	if fab.ClassBytes["batch"] != resBE.Net.BytesShuffled {
		t.Fatalf("batch class bytes %.0f, want %.0f", fab.ClassBytes["batch"], resBE.Net.BytesShuffled)
	}
	if fab.PeakParties < 2 {
		t.Fatalf("sessions did not contend: peak queries %d", fab.PeakParties)
	}
}

// TestStrictPriorityControllerProtectsInteractive: the same two-session
// contention with uniform requested weights, but a strict-priority
// NetController assigns class-tier weights — the controller, not the
// session, shapes the rates.
func TestStrictPriorityControllerProtectsInteractive(t *testing.T) {
	cfg := concTestConfig()
	cfg.Controller = sdn.NewNetController(nil, sdn.StrictPriority{}, 0)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(eng, 31, 6000, 150)
	eng.Register(productsRelation())
	eng.Fabric().Expect(2)
	inter := eng.Session()
	inter.Priority = "interactive"
	batch := eng.Session()
	batch.Priority = "batch"
	var wg sync.WaitGroup
	var resI, resB *Result
	var errI, errB error
	wg.Add(2)
	go func() { defer wg.Done(); resI, errI = inter.Query(context.Background(), concQueryB) }()
	go func() { defer wg.Done(); resB, errB = batch.Query(context.Background(), concQueryB) }()
	wg.Wait()
	if errI != nil || errB != nil {
		t.Fatalf("queries failed: %v / %v", errI, errB)
	}
	if resI.Rows.Len() != resB.Rows.Len() {
		t.Fatalf("row counts diverged: %d vs %d", resI.Rows.Len(), resB.Rows.Len())
	}
	// interactive outranks batch by x64: its phases should complete in
	// nearly isolated time while batch absorbs the contention.
	if resI.Net.NetSeconds >= resB.Net.NetSeconds*0.75 {
		t.Fatalf("interactive must be protected: %.6fs vs batch %.6fs",
			resI.Net.NetSeconds, resB.Net.NetSeconds)
	}
}

// TestNilControllerUniformWeightsReplay guards the acceptance
// criterion that the control-plane redesign is invisible when unused:
// a nil-controller engine with default (uniform) weights, one with
// explicitly uniform weights, and one running the Baseline policy
// through the full controller hook must all produce bit-identical
// network accounting — same floats, not just close — and identical
// rows, across repeated executions on the same fabric (the
// ResetClock + per-query-seeded-ECMP replay path through the new
// round hook).
func TestNilControllerUniformWeightsReplay(t *testing.T) {
	type outcome struct {
		netSec, bytes float64
		rounds        int
	}
	run := func(label, topology string, mutate func(*Config, *Session)) []outcome {
		t.Helper()
		cfg := concTestConfig()
		cfg.Topology = topology
		proto := &Session{}
		if mutate != nil {
			mutate(&cfg, proto)
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		RegisterDemo(eng, 31, 6000, 150)
		eng.Register(productsRelation())
		var outs []outcome
		for i := 0; i < 3; i++ {
			sess := eng.Session()
			sess.Priority, sess.Weight = proto.Priority, proto.Weight
			res, err := sess.Query(context.Background(), concQueryB)
			if err != nil {
				t.Fatalf("%s run %d: %v", label, i, err)
			}
			outs = append(outs, outcome{res.Net.NetSeconds, res.Net.BytesShuffled, res.Net.Adm.RoundsJoined})
		}
		return outs
	}

	// leafspine has real ECMP spread, so a controller that pinned
	// default-routed pairs to cached rules (instead of leaving them on
	// their per-seed picks) would diverge there even as a "no-op".
	for _, topology := range []string{"single", "leafspine"} {
		base := run("nil-controller", topology, nil)
		explicit := run("explicit-uniform", topology, func(cfg *Config, s *Session) { s.Weight = 1 })
		baseline := run("baseline-controller", topology, func(cfg *Config, s *Session) {
			cfg.Controller = sdn.NewNetController(nil, sdn.Baseline{}, 0)
		})

		for i := 1; i < len(base); i++ {
			if base[i] != base[0] {
				t.Fatalf("%s: sequential replay diverged: run %d %+v vs %+v", topology, i, base[i], base[0])
			}
		}
		for i := range base {
			if explicit[i] != base[i] {
				t.Fatalf("%s: explicit uniform weights diverged from nil controller: %+v vs %+v", topology, explicit[i], base[i])
			}
			if baseline[i] != base[i] {
				t.Fatalf("%s: baseline controller diverged from nil controller: %+v vs %+v", topology, baseline[i], base[i])
			}
		}
		if base[0].netSec <= 0 || base[0].bytes <= 0 || base[0].rounds == 0 {
			t.Fatalf("%s: degenerate outcome: %+v", topology, base[0])
		}
	}
}
