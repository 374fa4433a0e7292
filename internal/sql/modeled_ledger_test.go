package sql

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/sdn"
)

// ledgerConfigs are the distributed configurations of the repository
// benchmark's olap_dist and olap_dist_allon workloads, copied from
// olapConfig in benchmark/olap.go (and, for olap_dist_allon, the session
// budget and spill tier setupOlap gives it), at Workers 1: the benchmark
// takes one worker per CPU, and at more than one a shard's workers race
// for its budget and its devices, so the spill and device seconds (and,
// across machines, the spill partitions) would depend on the schedule.
func ledgerConfigs() []struct {
	name   string
	cfg    Config
	budget float64 // share of the sales table's encoded bytes; 0: none
} {
	dist := DefaultConfig()
	dist.Workers = 1
	dist.Distributed, dist.Shards, dist.Topology = true, 4, "leafspine"
	allOn := dist
	allOn.PipelineChunkRows = 1024
	allOn.Replication = 2
	allOn.Devices = []string{"cpu", "gpu", "fpga"}
	allOn.Placement = "auto"
	allOn.Controller = sdn.NewNetController(nil, sdn.PolicyByName("reroute"), 4096)
	return []struct {
		name   string
		cfg    Config
		budget float64
	}{{"olap_dist", dist, 0}, {"olap_dist_allon", allOn, 0.02}}
}

// TestModeledLedgerPinned pins the modeled clock of the benchmark's four
// class statements (olapClasses) under olap_dist's and olap_dist_allon's
// configurations, over the benchmark's tables, against
// testdata/modeled_ledger.golden (UPDATE_GOLDEN=1 rewrites it). Per
// statement it pins the network report — bytes, flows, phases, chunks,
// admission rounds and modeled seconds, phase by phase too — the SDN
// path overrides, the spill partitions and bytes, and each device's
// morsels and rows, exactly, in hex floats; spill and device seconds
// (the "seconds" fields), which the shards add up in the order they
// finish, match to 1e-12 relative. Every statement runs once to warm (as
// the benchmark's setup does) before the run that is pinned.
func TestModeledLedgerPinned(t *testing.T) {
	sales, customers := SalesRelation(1, 1<<18, 50000), CustomersRelation(2, 50000)
	var got []string
	for _, lc := range ledgerConfigs() {
		eng, err := NewEngine(lc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.Register(sales)
		eng.Register(customers)
		sess := eng.Session()
		if lc.budget > 0 {
			sess.MemoryBudget = int64(lc.budget * sales.EncodedBytes())
			sess.SpillTier = "ssd"
		}
		for _, c := range olapClasses {
			st, err := sess.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Exec(context.Background()); err != nil {
				t.Fatalf("%s %s: %v", lc.name, c.name, err)
			}
			overrides := eng.Fabric().Admission().PathOverrides
			res, err := st.Exec(context.Background())
			if err != nil {
				t.Fatalf("%s %s: %v", lc.name, c.name, err)
			}
			head := lc.name + " " + c.name
			n := res.Net
			chunks := 0
			for _, p := range n.Phases {
				chunks += p.Chunks
			}
			got = append(got, fmt.Sprintf("%s net bytes=%s flows=%d phases=%d chunks=%d rounds=%d wall=%s overrides=%d",
				head, reportFloat(n.BytesShuffled), n.Flows, len(n.Phases), chunks, n.Adm.RoundsJoined,
				reportFloat(n.WallSeconds()), eng.Fabric().Admission().PathOverrides-overrides))
			for _, p := range n.Phases {
				got = append(got, fmt.Sprintf("%s phase=%s flows=%d bytes=%s net=%s chunks=%d compute=%s overlap=%s",
					head, p.Name, p.Flows, reportFloat(p.Bytes), reportFloat(p.Seconds), p.Chunks,
					reportFloat(p.ComputeSeconds), reportFloat(p.OverlapSeconds)))
			}
			if s := res.Spill; s != nil {
				got = append(got, fmt.Sprintf("%s spill partitions=%d bytes=%d seconds=%s",
					head, s.Partitions, s.SpilledBytes, reportFloat(s.WriteSeconds+s.ReadSeconds)))
			}
			for _, d := range res.Devices {
				got = append(got, fmt.Sprintf("%s device=%s morsels=%d rows=%d seconds=%s",
					head, d.Device, d.Morsels, d.Rows, reportFloat(d.Seconds)))
			}
		}
	}

	const path = "testdata/modeled_ledger.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("ledger has %d lines, golden %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if !sameReportLine(want[i], got[i]) {
			t.Errorf("line %d differs:\nwant %s\n got %s", i+1, want[i], got[i])
		}
	}
}
