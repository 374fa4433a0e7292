package sql

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/exec"
)

// Heterogeneous-execution acceptance suite: morsel placement across
// CPU/GPU/FPGA device models must never change query output — on the
// serial, morsel-parallel and distributed paths — while the modeled
// device report tracks where morsels went and what they cost, and the
// nil-device configuration replays the homogeneous engine exactly.

// heteroQueries exercises every placed kernel: range+predicate filters,
// computed projections, sort, and grouped aggregation, plus a join.
var heteroQueries = []string{
	"SELECT order_id, price FROM sales WHERE year >= 2014 AND quantity <= 3",
	"SELECT order_id, price * (1 - discount) AS net FROM sales WHERE region = 'emea' ORDER BY net DESC LIMIT 25",
	"SELECT region, COUNT(*) AS n, SUM(price) AS revenue FROM sales GROUP BY region ORDER BY revenue DESC",
	"SELECT c.segment, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2013 GROUP BY c.segment ORDER BY net DESC",
}

func heteroRef(t *testing.T) map[string]*Result {
	t.Helper()
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(eng, 23, 8000, 200)
	out := map[string]*Result{}
	for _, q := range heteroQueries {
		res, err := eng.Session().Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out[q] = res
	}
	return out
}

// TestHeteroPlacementParity is the headline acceptance criterion: rows
// are identical across CPU-only, forced-GPU, forced-FPGA and auto
// placement, on the morsel-parallel and distributed paths (the serial
// row engine ignores devices but must also agree).
func TestHeteroPlacementParity(t *testing.T) {
	ref := heteroRef(t)
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
	for _, path := range paths {
		for _, placement := range []string{"cpu", "gpu", "fpga", "auto"} {
			cfg := DefaultConfig()
			cfg.Devices = []string{"cpu", "gpu", "fpga"}
			cfg.Placement = placement
			path.mutate(&cfg)
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			RegisterDemo(eng, 23, 8000, 200)
			sess := eng.Session()
			for _, q := range heteroQueries {
				res, err := sess.Query(context.Background(), q)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", path.name, placement, q, err)
				}
				expectRowsEqual(t, path.name+"/"+placement+" vs reference", ref[q].Rows, res.Rows)
				if path.name == "serial" {
					if res.Devices != nil {
						t.Fatalf("serial row engine must not report devices: %+v", res.Devices)
					}
					continue
				}
				if len(res.Devices) == 0 || res.Placement != placement {
					t.Fatalf("%s/%s: device report missing: placement %q devices %+v", path.name, placement, res.Placement, res.Devices)
				}
				total := 0
				for _, d := range res.Devices {
					total += d.Morsels
					if d.Seconds <= 0 || d.EnergyJ <= 0 {
						t.Fatalf("%s/%s: degenerate device stats %+v", path.name, placement, d)
					}
					if placement != "auto" && d.Device != placement {
						t.Fatalf("forced %s sent morsels to %s: %+v", placement, d.Device, res.Devices)
					}
				}
				if total == 0 {
					t.Fatalf("%s/%s: no morsels placed", path.name, placement)
				}
			}
		}
	}
}

// TestHeteroOverheadAccounting: forced offload placements charge their
// style's overheads into the per-operator and per-device stats — PCIe
// transfer + launches on the GPU, reconfiguration on the FPGA (once per
// kernel per worker host, not per morsel).
func TestHeteroOverheadAccounting(t *testing.T) {
	run := func(placement string) *Result {
		cfg := DefaultConfig()
		cfg.Devices = []string{"cpu", "gpu", "fpga"}
		cfg.Placement = placement
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		RegisterDemo(eng, 23, 8000, 200)
		res, err := eng.Session().Query(context.Background(), heteroQueries[0])
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	gpu := run("gpu")
	if gpu.Devices[0].TransferSeconds <= 0 || gpu.Devices[0].LaunchSeconds <= 0 {
		t.Fatalf("forced gpu must charge transfer and launches: %+v", gpu.Devices[0])
	}
	st, ok := gpu.Ops["pushdown:sales"]
	if !ok || st.Hetero == nil {
		t.Fatalf("filter operator must carry hetero stats: %+v", gpu.Ops)
	}
	if st.Hetero.Morsels == 0 || st.Hetero.TransferSeconds <= 0 || st.Hetero.Devices["gpu"] != st.Hetero.Morsels {
		t.Fatalf("filter hetero stats: %+v", st.Hetero)
	}

	fpga := run("fpga")
	d := fpga.Devices[0]
	if d.Device != "fpga" || d.SetupSeconds <= 0 {
		t.Fatalf("forced fpga must charge reconfiguration: %+v", d)
	}
	// One bitstream load for the filter kernel, not one per morsel.
	perKernel := d.SetupSeconds / 0.1 // fpgaReconfigS
	if d.Morsels < 2 || int(perKernel+0.5) >= d.Morsels {
		t.Fatalf("reconfiguration must amortize across morsels: %d loads over %d morsels", int(perKernel+0.5), d.Morsels)
	}

	cpu := run("cpu")
	if c := cpu.Devices[0]; c.TransferSeconds != 0 || c.LaunchSeconds != 0 || c.SetupSeconds != 0 {
		t.Fatalf("cpu placement has no offload overheads: %+v", c)
	}
}

// TestHeteroAutoNotWorseThanCPU: per-morsel cost-based placement's
// modeled total is never above forcing the CPU, on a scan-heavy
// workload (the BenchmarkSQLHeteroAutoPlace acceptance in test form).
// One worker makes the comparison scheduling-independent: with several,
// the selectivity EWMA and the float fold of morsel costs depend on
// which worker's morsel lands first, and the two totals can swap in the
// last digits. The order-independent fold that would lift this
// restriction is ROADMAP direction 1(c).
func TestHeteroAutoNotWorseThanCPU(t *testing.T) {
	run := func(placement string) float64 {
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.Devices = []string{"cpu", "gpu", "fpga"}
		cfg.Placement = placement
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		RegisterDemo(eng, 23, 60000, 200)
		res, err := eng.Session().Query(context.Background(), heteroQueries[0])
		if err != nil {
			t.Fatal(err)
		}
		sec := exec.ModeledSeconds(res.Devices)
		if sec <= 0 {
			t.Fatalf("%s: no modeled time", placement)
		}
		return sec
	}
	auto, cpu := run("auto"), run("cpu")
	if auto > cpu {
		t.Fatalf("auto placement modeled %.6gs > cpu-only %.6gs", auto, cpu)
	}
}

// TestNilDevicesReplay guards the replay acceptance criterion the same
// way TestNilControllerUniformWeightsReplay does for the control plane:
// an engine with no device set must behave bit-identically with and
// without the heterogeneous seam in the build — and identically to a
// device-carrying engine in everything except the modeled report, since
// devices model cost, not semantics. Distributed network accounting
// (floats, not approximations) must match across all three.
func TestNilDevicesReplay(t *testing.T) {
	type outcome struct {
		netSec, bytes float64
		rounds        int
	}
	// concQueryB plus a pushed-down filter, so the shard fragments carry
	// a placeable kernel while the shuffle/gather accounting stays the
	// comparison target.
	query := "SELECT s.order_id FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2012"
	run := func(devices []string, placement string) ([]outcome, []*Result) {
		t.Helper()
		cfg := concTestConfig()
		cfg.Devices = devices
		cfg.Placement = placement
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		RegisterDemo(eng, 31, 6000, 150)
		var outs []outcome
		var results []*Result
		for i := 0; i < 3; i++ {
			res, err := eng.Session().Query(context.Background(), query)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, outcome{res.Net.NetSeconds, res.Net.BytesShuffled, res.Net.Adm.RoundsJoined})
			results = append(results, res)
		}
		return outs, results
	}

	base, baseRes := run(nil, "")
	for i := 1; i < len(base); i++ {
		if base[i] != base[0] {
			t.Fatalf("nil-device replay diverged: run %d %+v vs %+v", i, base[i], base[0])
		}
	}
	for _, res := range baseRes {
		if res.Devices != nil || res.Placement != "" {
			t.Fatalf("nil devices must not report placement: %q %+v", res.Placement, res.Devices)
		}
	}

	hetero, hetRes := run([]string{"cpu", "gpu", "fpga"}, "auto")
	for i := range base {
		if hetero[i] != base[i] {
			t.Fatalf("device set perturbed the network accounting: %+v vs %+v", hetero[i], base[i])
		}
		expectRowsEqual(t, "hetero vs nil-device rows", baseRes[i].Rows, hetRes[i].Rows)
		if len(hetRes[i].Devices) == 0 {
			t.Fatal("device engine must report placements")
		}
	}
}

// TestSessionPlacementOverride: Session.Placement overrides the engine
// default per query stream; invalid values surface at query time.
func TestSessionPlacementOverride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Devices = []string{"cpu", "gpu"}
	cfg.Placement = "cpu"
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(eng, 23, 4000, 100)

	sess := eng.Session()
	sess.Placement = "gpu"
	res, err := sess.Query(context.Background(), heteroQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement != "gpu" || res.Devices[len(res.Devices)-1].Device != "gpu" {
		t.Fatalf("session override ignored: %q %+v", res.Placement, res.Devices)
	}

	def, err := eng.Session().Query(context.Background(), heteroQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if def.Placement != "cpu" {
		t.Fatalf("engine default placement: %q", def.Placement)
	}

	bad := eng.Session()
	bad.Placement = "fpga" // not in this engine's device set
	if _, err := bad.Query(context.Background(), heteroQueries[0]); err == nil {
		t.Fatal("placement outside the device set must error")
	}
}

// TestHeteroConfigValidation: bad device sets and placements surface at
// NewEngine, not at the first query.
func TestHeteroConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Devices = []string{"cpu", "tpu"}
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("unknown device must fail NewEngine")
	}
	cfg = DefaultConfig()
	cfg.Devices = []string{"cpu"}
	cfg.Placement = "sideways"
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("unknown placement must fail NewEngine")
	}
	cfg = DefaultConfig()
	cfg.Devices = []string{"gpu"}
	cfg.Placement = "fpga"
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("forced placement outside the device set must fail NewEngine")
	}
}

// TestDistributedPostJoinPlacementHint: kernels a distributed plan places
// above a join amortize device setup over the planner's post-join
// estimate spread across the shards, as the single-node lowering does
// over the whole estimate. (The field the distributed planner used to
// read for this was never assigned, so every such kernel priced setup
// over 0 rows.) Placement never changes rows: they match the CPU-only
// run exactly.
func TestDistributedPostJoinPlacementHint(t *testing.T) {
	q := heteroQueries[3] // join, then a computed projection and an aggregate
	cfg := DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 4
	cfg.Workers = 1
	cfg.Devices = []string{"cpu", "gpu", "fpga"}
	cfg.Placement = "auto"
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(eng, 23, 8000, 200)

	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	pl := &planner{eng: eng, cfg: cfg}
	lp, err := pl.buildLogical(stmt, true)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := pl.newDistExec(lp, &Planned{})
	if err != nil {
		t.Fatal(err)
	}
	// Close before the next query: an open registration parks every
	// other query of the engine at the admission barrier.
	qr := eng.Fabric().NewQueryQoS(nil, "", 0)
	dx.guard = eng.Lifecycle().NewGuard(qr)
	st, err := dx.front()
	qr.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := (lp.size + cfg.Shards - 1) / cfg.Shards; lp.size <= 0 || st.hint != want {
		t.Fatalf("post-join stream hint = %d, want ceil(%d / %d shards) = %d", st.hint, lp.size, cfg.Shards, want)
	}
	for s := range dx.lw {
		// Every kernel a shard lowerer places passes hintRows as its
		// expected rows.
		if lw := dx.lowerer(s, st.hint); lw.hintRows <= 0 {
			t.Fatalf("shard %d: post-join kernels dispatched with expected rows = %d", s, lw.hintRows)
		}
	}

	placed, err := eng.Session().Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(placed.Devices) == 0 {
		t.Fatal("placed run reported no devices")
	}
	cfg.Devices, cfg.Placement = []string{"cpu"}, "cpu"
	cpuEng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(cpuEng, 23, 8000, 200)
	cpuOnly, err := cpuEng.Session().Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(placed.Rows.RowView(), cpuOnly.Rows.RowView()) {
		t.Fatalf("rows differ between auto placement and the CPU-only run")
	}
}

// TestHeteroGeneratedParity: seeded statements over exprTable — a
// computed projection under a generated filter, and a grouped COUNT and
// SUM of a generated Int expression — return the same rows, Floats
// bit-equal, and fail with the same division or modulo by zero error
// under every placement over devices cpu,gpu,fpga as on the engine
// without devices, on one node at Workers 1 and 2 and on 4 shards.
func TestHeteroGeneratedParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(39, 1))
	var stmts []string
	for range 20 {
		data := make([]byte, 32)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		g := &exprGen{data: data}
		stmts = append(stmts,
			"SELECT id, "+g.gen(tInt, 3)+" AS a, "+g.gen(tFloat, 3)+" AS b FROM t WHERE "+g.gen(tBool, 3),
			"SELECT s, COUNT(*) AS n, SUM("+g.gen(tInt, 3)+") AS x FROM t GROUP BY s")
	}
	rel := exprTable("t", 3000)
	type outcome struct {
		rows *Result
		err  error
	}
	run := func(cfg Config, devices []string, placement string) []outcome {
		cfg.Devices, cfg.Placement = devices, placement
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.Register(rel)
		sess := eng.Session()
		out := make([]outcome, len(stmts))
		for i, q := range stmts {
			out[i].rows, out[i].err = sess.Query(context.Background(), q)
		}
		return out
	}
	shapes := []struct {
		name   string
		mutate func(*Config)
	}{
		{"workers1", func(cfg *Config) { cfg.Workers = 1 }},
		{"workers2", func(cfg *Config) { cfg.Workers = 2 }},
		{"shards4", func(cfg *Config) { cfg.Distributed, cfg.Shards = true, 4 }},
	}
	for _, shape := range shapes {
		cfg := DefaultConfig()
		shape.mutate(&cfg)
		ref := run(cfg, nil, "")
		for _, placement := range exec.Placements {
			got := run(cfg, []string{"cpu", "gpu", "fpga"}, placement)
			for i, q := range stmts {
				w, g := ref[i], got[i]
				label := shape.name + "/" + placement + " " + q
				if w.err != nil || g.err != nil {
					if w.err == nil || g.err == nil || w.err.Error() != g.err.Error() {
						t.Fatalf("%s: error %v, without devices %v", label, g.err, w.err)
					}
					continue
				}
				if len(g.rows.Devices) == 0 {
					t.Fatalf("%s: no morsels placed", label)
				}
				wr, gr := w.rows.Rows.RowView(), g.rows.Rows.RowView()
				if len(wr) != len(gr) {
					t.Fatalf("%s: %d rows, without devices %d", label, len(gr), len(wr))
				}
				for r := range wr {
					for c := range wr[r] {
						if !sameBits(wr[r][c], gr[r][c]) {
							t.Fatalf("%s: row %d col %d: %v, without devices %v", label, r, c, gr[r][c], wr[r][c])
						}
					}
				}
			}
		}
	}
}
