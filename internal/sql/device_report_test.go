package sql

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDeviceReportPinned pins the heterogeneous device report of
// heteroQueries against testdata/device_report.golden (UPDATE_GOLDEN=1
// rewrites it). On one node at Workers 1 every Result.Devices field and
// every Result.Ops[*].Hetero field must match to the bit; on 4 shards at
// Workers 1 per-device morsels and rows must match exactly and modeled
// seconds and energy to 1e-12 relative, since the shard forks add them
// into one aggregate in whatever order they finish. The queueing fields
// depend on the schedule and are left out.
func TestDeviceReportPinned(t *testing.T) {
	single := DefaultConfig()
	single.Workers = 1
	shards := single
	shards.Distributed = true
	shards.Shards = 4
	got := append(deviceReport(t, "single", single), deviceReport(t, "shards4", shards)...)

	const path = "testdata/device_report.golden"
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
		t.Fatalf("device report has %d lines, golden %d", len(got), len(want))
	}
	for i := range want {
		if strings.HasPrefix(want[i], "single ") {
			if got[i] != want[i] {
				t.Fatalf("line %d differs:\nwant %s\n got %s", i+1, want[i], got[i])
			}
			continue
		}
		if !sameReportLine(want[i], got[i]) {
			t.Fatalf("line %d differs beyond 1e-12 relative:\nwant %s\n got %s", i+1, want[i], got[i])
		}
	}
}

// reportFloat renders one modeled number exactly.
func reportFloat(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// deviceReport runs heteroQueries on devices cpu,gpu,fpga under the auto,
// gpu and fpga placements and renders one line per reported device and,
// on one node, one line per placed operator.
func deviceReport(t *testing.T, shape string, cfg Config) []string {
	t.Helper()
	var lines []string
	for _, placement := range []string{"auto", "gpu", "fpga"} {
		cfg.Devices = []string{"cpu", "gpu", "fpga"}
		cfg.Placement = placement
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		RegisterDemo(eng, 23, 8000, 200)
		sess := eng.Session()
		for qi, q := range heteroQueries {
			res, err := sess.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%s/%s %s: %v", shape, placement, q, err)
			}
			head := fmt.Sprintf("%s %s q%d", shape, placement, qi)
			for _, d := range res.Devices {
				lines = append(lines, fmt.Sprintf("%s device=%s style=%s morsels=%d rows=%d seconds=%s transfer=%s launch=%s setup=%s energy=%s",
					head, d.Device, d.Style, d.Morsels, d.Rows, reportFloat(d.Seconds), reportFloat(d.TransferSeconds),
					reportFloat(d.LaunchSeconds), reportFloat(d.SetupSeconds), reportFloat(d.EnergyJ)))
			}
			if cfg.Distributed {
				continue
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
				devs := make([]string, 0, len(h.Devices))
				for name, n := range h.Devices {
					devs = append(devs, fmt.Sprintf("%s:%d", name, n))
				}
				sort.Strings(devs)
				lines = append(lines, fmt.Sprintf("%s op=%s kernel=%s morsels=%d seconds=%s transfer=%s launch=%s setup=%s energy=%s devices=%s",
					head, tag, h.Kernel, h.Morsels, reportFloat(h.Seconds), reportFloat(h.TransferSeconds),
					reportFloat(h.LaunchSeconds), reportFloat(h.SetupSeconds), reportFloat(h.EnergyJ), strings.Join(devs, ",")))
			}
		}
	}
	return lines
}

// sameReportLine compares two report lines field by field: the modeled
// seconds and energy to 1e-12 relative, everything else exactly.
func sameReportLine(want, got string) bool {
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
		switch wk {
		case "seconds", "transfer", "launch", "setup", "energy":
		default:
			return false
		}
		a, errA := strconv.ParseFloat(wv, 64)
		b, errB := strconv.ParseFloat(gv, 64)
		if gk != wk || errA != nil || errB != nil || math.Abs(a-b) > 1e-12*math.Max(math.Abs(a), math.Abs(b)) {
			return false
		}
	}
	return true
}
