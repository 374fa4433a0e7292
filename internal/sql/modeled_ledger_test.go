package sql

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/relational"
	"repro/internal/sdn"
)

// ledgerConfigs are the distributed configurations of the repository
// benchmark's olap_dist and olap_dist_allon workloads, copied from
// olapConfig in benchmark/olap.go (and, for olap_dist_allon, the session
// budget and spill tier setupOlap gives it), at the given worker count.
func ledgerConfigs(workers int) []struct {
	name   string
	cfg    Config
	budget float64 // share of the sales table's encoded bytes; 0: none
} {
	dist := DefaultConfig()
	dist.Workers = workers
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
// testdata/modeled_ledger.golden (UPDATE_GOLDEN=1 rewrites it from
// Workers 1). Per statement it pins the network report — bytes, flows,
// phases, chunks, admission rounds and modeled seconds, phase by phase
// too — the SDN path overrides, the spill partitions, bytes and seconds,
// and each device's morsels and rows, in hex floats, exactly, at Workers
// 1, 2 and 4 against the one golden: a shard's workers race for its
// budget, but spill is counted and priced once from the totals. Device
// seconds fold a selectivity estimate in the order morsels finish, so
// they are compared at Workers 1 only, to 1e-12 relative. Every statement
// runs once to warm (as the benchmark's setup does) before the run that
// is pinned.
func TestModeledLedgerPinned(t *testing.T) {
	sales, customers := SalesRelation(1, 1<<18, 50000), CustomersRelation(2, 50000)
	const path = "testdata/modeled_ledger.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		got := modeledLedger(t, sales, customers, 1)
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
	for _, workers := range []int{1, 2, 4} {
		got := modeledLedger(t, sales, customers, workers)
		if len(got) != len(want) {
			t.Fatalf("workers %d: ledger has %d lines, golden %d:\n%s", workers, len(got), len(want), strings.Join(got, "\n"))
		}
		for i := range want {
			same := want[i] == got[i]
			if strings.Contains(want[i], " device=") {
				if workers == 1 {
					same = sameReportLine(want[i], got[i])
				} else {
					same = withoutSeconds(want[i]) == withoutSeconds(got[i])
				}
			}
			if !same {
				t.Errorf("workers %d: line %d differs:\nwant %s\n got %s", workers, i+1, want[i], got[i])
			}
		}
	}
}

// withoutSeconds drops a report line's seconds= field.
func withoutSeconds(line string) string {
	fields := strings.Fields(line)
	return strings.Join(slices.DeleteFunc(fields, func(f string) bool { return strings.HasPrefix(f, "seconds=") }), " ")
}

// modeledLedger renders TestModeledLedgerPinned's lines at the given
// worker count.
func modeledLedger(t *testing.T, sales, customers *relational.Relation, workers int) []string {
	t.Helper()
	var got []string
	for _, lc := range ledgerConfigs(workers) {
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
	return got
}
