package sql

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestTopKFallbackPricePinned pins what a budgeted top-k whose k rows do
// not fit the budget reports: every Result.Spill field, every
// Result.Devices field and, on one node, every placed operator's Hetero
// cost, against testdata/topk_fallback.golden (UPDATE_GOLDEN=1 rewrites
// it — only for an intended change of the modeled clock). The statements
// are an ORDER BY … LIMIT over a plain scan, the same under a WHERE (the
// top-k reads selected batches) and the plain one on 4 shards (a shard
// top-k below the gather), at Workers 1 with every device on. The
// budgets hold about one row, a few rows, all 25 until a longer row
// displaces a kept one (1130 B: the reservation fails with the heap
// full), and all 25 for good. Every spill line matches to the bit, as
// spill is counted and priced once from the totals. On one node the
// device lines do too; on 4 shards the shards' forks add their device
// charges into one aggregate in whatever order they finish, so counts
// match exactly and modeled seconds and energy to 1e-12 relative.
func TestTopKFallbackPricePinned(t *testing.T) {
	const plain = "SELECT order_id, product, quantity FROM sales ORDER BY quantity DESC, order_id LIMIT 25"
	const where = "SELECT order_id, product, quantity FROM sales WHERE year >= 2012 ORDER BY quantity DESC, order_id LIMIT 25"
	want := querySpill(t, spillEngine(t, 0, func(cfg *Config) { cfg.Parallel = false }), plain)
	wantWhere := querySpill(t, spillEngine(t, 0, func(cfg *Config) { cfg.Parallel = false }), where)
	var got []string
	for _, c := range []struct {
		name, sql string
		shards    int
	}{
		{"scan", plain, 0},
		{"where", where, 0},
		{"shards4", plain, 4},
	} {
		for _, budget := range []int64{48, 256, 1130, 2048} {
			res := querySpill(t, spillEngine(t, budget, func(cfg *Config) {
				cfg.Workers = 1
				cfg.Devices, cfg.Placement = []string{"cpu", "gpu", "fpga"}, "auto"
				cfg.Distributed, cfg.Shards = c.shards > 0, c.shards
			}), c.sql)
			head := fmt.Sprintf("%s budget=%d", c.name, budget)
			oracle := want
			if c.sql == where {
				oracle = wantWhere
			}
			expectRowsEqual(t, head, oracle.Rows, res.Rows)
			got = append(got, topKFallbackReport(head, res, c.shards == 0)...)
		}
	}

	const path = "testdata/topk_fallback.golden"
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
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(lines) {
		t.Fatalf("report has %d lines, golden %d:\n%s", len(got), len(lines), strings.Join(got, "\n"))
	}
	for i, w := range lines {
		exact := !strings.HasPrefix(w, "shards4 ") || strings.Contains(w, " spill ")
		if exact && got[i] != w || !exact && !closeModeledLine(w, got[i]) {
			t.Errorf("line %d differs:\nwant %s\n got %s", i+1, w, got[i])
		}
	}
}

// topKFallbackReport renders one run's spill report, its devices and, on
// one node, its placed operators, one line each, modeled numbers in hex.
func topKFallbackReport(head string, res *Result, ops bool) []string {
	sp := res.Spill
	lines := []string{fmt.Sprintf("%s spill tier=%s partitions=%d bytes=%d write=%s read=%s energy=%s depth=%d",
		head, sp.Tier, sp.Partitions, sp.SpilledBytes, reportFloat(sp.WriteSeconds), reportFloat(sp.ReadSeconds),
		reportFloat(sp.EnergyJ), sp.MaxDepth)}
	for _, d := range res.Devices {
		lines = append(lines, fmt.Sprintf("%s device=%s style=%s morsels=%d rows=%d seconds=%s transfer=%s launch=%s setup=%s energy=%s",
			head, d.Device, d.Style, d.Morsels, d.Rows, reportFloat(d.Seconds), reportFloat(d.TransferSeconds),
			reportFloat(d.LaunchSeconds), reportFloat(d.SetupSeconds), reportFloat(d.EnergyJ)))
	}
	if !ops {
		return lines
	}
	tags := make([]string, 0, len(res.Ops))
	for tag, st := range res.Ops {
		if st.Hetero != nil {
			tags = append(tags, tag)
		}
	}
	sort.Strings(tags)
	for _, tag := range tags {
		h := res.Ops[tag].Hetero
		lines = append(lines, fmt.Sprintf("%s op=%s kernel=%s morsels=%d seconds=%s transfer=%s launch=%s setup=%s energy=%s",
			head, tag, h.Kernel, h.Morsels, reportFloat(h.Seconds), reportFloat(h.TransferSeconds),
			reportFloat(h.LaunchSeconds), reportFloat(h.SetupSeconds), reportFloat(h.EnergyJ)))
	}
	return lines
}

// closeModeledLine compares two report lines field by field: a modeled
// number (rendered in hex) to 1e-12 relative, everything else exactly.
func closeModeledLine(want, got string) bool {
	wf, gf := strings.Fields(want), strings.Fields(got)
	if len(wf) != len(gf) {
		return false
	}
	for i := range wf {
		if wf[i] == gf[i] {
			continue
		}
		wk, wv, _ := strings.Cut(wf[i], "=")
		gk, gv, _ := strings.Cut(gf[i], "=")
		a, errA := strconv.ParseFloat(wv, 64)
		b, errB := strconv.ParseFloat(gv, 64)
		if gk != wk || !strings.Contains(wv, "0x") || errA != nil || errB != nil ||
			math.Abs(a-b) > 1e-12*math.Max(math.Abs(a), math.Abs(b)) {
			return false
		}
	}
	return true
}
