package repro

// Cross-module integration tests: scenarios that thread several substrates
// together in ways no single package test does — the SDN control plane
// feeding the flow simulator, three processing engines cross-checked on
// one dataset, the scheduler driven by the building-block descriptors, and
// the roadmap engine consuming every survey projection.

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/mapreduce"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/sdn"
	"repro/internal/sql"
	"repro/internal/survey"
	"repro/internal/topo"
	"repro/internal/workload"
)

// TestSDNRoutedFlowsThroughSimulator installs paths via the controller,
// then replays exactly those paths in the flow simulator: control and data
// plane agree end-to-end, and the simulated shuffle completes.
func TestSDNRoutedFlowsThroughSimulator(t *testing.T) {
	net := topo.LeafSpine(topo.LeafSpineSpec{
		Leaves: 4, Spines: 2, HostsPerLeaf: 4,
		HostSpeed: topo.Gen10, FabricSpeed: topo.Gen40,
	})
	c := sdn.NewController(net, sdn.Reactive, 0)
	s := netsim.NewSimulator(net)
	hosts := net.Hosts()
	flows := 0
	for i, src := range hosts {
		dst := hosts[(i+5)%len(hosts)]
		if src == dst {
			continue
		}
		if _, err := c.FlowSetupUS(src, dst); err != nil {
			t.Fatal(err)
		}
		p, err := c.Forward(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		// The data-plane path must be a valid route of the same topology
		// the simulator prices.
		if p.NodeIDs[0] != src || p.NodeIDs[len(p.NodeIDs)-1] != dst {
			t.Fatalf("controller path endpoints wrong: %v", p.NodeIDs)
		}
		if _, err := s.StartFlow(src, dst, 2e7); err != nil {
			t.Fatal(err)
		}
		flows++
	}
	s.Run()
	if s.FCTs().N() != flows {
		t.Fatalf("completed %d of %d flows", s.FCTs().N(), flows)
	}
	if got := s.BytesDelivered(); got != float64(flows)*2e7 {
		t.Fatalf("bytes delivered = %v", got)
	}
}

// TestThreeEnginesAgreeOnLargeDataset is the full-size version of E8's
// agreement check: SQL, MapReduce and dataflow compute identical
// region-revenue aggregates over 100k rows.
func TestThreeEnginesAgreeOnLargeDataset(t *testing.T) {
	const (
		seed = 1234
		n    = 100000
	)
	sales := workload.Sales(seed, n, 2000)

	// SQL.
	eng, err := sql.NewEngine(sql.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng.Register(sql.SalesRelation(seed, n, 2000))
	res, err := eng.Session().Query(context.Background(), "SELECT region, SUM(price) AS total FROM sales GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for _, row := range res.Rows.RowView() {
		want[row[0].S] = row[1].F
	}

	// MapReduce.
	mrOut, _, err := mapreduce.Run(mapreduce.Config{MapTasks: 8, ReduceTasks: 4}, sales,
		func(s workload.SalesRow, emit func(string, float64)) { emit(s.Region, s.Price) },
		func(a, b float64) float64 { return a + b },
		func(_ string, vs []float64) float64 {
			tot := 0.0
			for _, v := range vs {
				tot += v
			}
			return tot
		})
	if err != nil {
		t.Fatal(err)
	}

	// Dataflow.
	d := dataflow.FromSlice("sales", sales, 8)
	keyed := dataflow.Map(dataflow.KeyBy(d, func(s workload.SalesRow) string { return s.Region }),
		func(p dataflow.Pair[string, workload.SalesRow]) dataflow.Pair[string, float64] {
			return dataflow.Pair[string, float64]{Key: p.Key, Val: p.Val.Price}
		})
	dfOut, err := dataflow.Collect(dataflow.ReduceByKey(keyed, func(a, b float64) float64 { return a + b }))
	if err != nil {
		t.Fatal(err)
	}

	if len(mrOut) != len(want) {
		t.Fatalf("MapReduce regions = %d, SQL = %d", len(mrOut), len(want))
	}
	for region, total := range want {
		if math.Abs(mrOut[region]-total) > 1e-6*math.Abs(total) {
			t.Fatalf("MapReduce %s = %v, SQL = %v", region, mrOut[region], total)
		}
	}
	seen := 0
	for _, kv := range dfOut {
		total, ok := want[kv.Key]
		if !ok {
			t.Fatalf("dataflow produced unknown region %q", kv.Key)
		}
		if math.Abs(kv.Val-total) > 1e-6*math.Abs(total) {
			t.Fatalf("dataflow %s = %v, SQL = %v", kv.Key, kv.Val, total)
		}
		seen++
	}
	if seen != len(want) {
		t.Fatalf("dataflow regions = %d, want %d", seen, len(want))
	}
}

// TestBuildingBlocksDriveScheduler runs a DAG whose tasks are the actual
// Recommendation-10 block descriptors through every policy and checks the
// schedules remain valid with eligibility constraints (the ASIC only
// accelerates its kernel family).
func TestBuildingBlocksDriveScheduler(t *testing.T) {
	blocks := kernels.Blocks()
	names := []string{"sort", "hash-join", "aggregate", "kmeans", "matmul", "pagerank"}
	dag := &sched.DAG{}
	for i, name := range names {
		task := sched.Task{ID: i, Name: name, Kernel: blocks[name], OutBytes: 1e6}
		if i > 0 {
			task.Deps = []int{i - 1}
		}
		if name == "matmul" || name == "kmeans" {
			// Compute-intense family: may use the ASIC, GPU or CPU.
			task.Eligible = func(d *hw.Device) bool { return d.Class != hw.FPGA }
		}
		dag.Tasks = append(dag.Tasks, task)
	}
	cluster := sched.NewCluster(hw.KitchenSinkNode(), hw.CommodityNode())
	for _, p := range sched.AllPolicies() {
		res, err := sched.Schedule(dag, cluster, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := res.Validate(dag, cluster); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
	// EFT-based scheduling sends matmul to the ASIC (38× faster there).
	res, err := sched.Schedule(dag, cluster, sched.MinMin)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assignments {
		if dag.Tasks[a.Task].Name == "matmul" && a.Ref.Device.Class != hw.ASIC {
			t.Fatalf("matmul scheduled on %v, want asic", a.Ref.Device.Class)
		}
	}
}

// TestRoadmapConsumesProjectedCorpora runs the full pipeline — projected
// survey rates → synthesized corpus → findings → scored recommendations —
// for every year of the roadmap window.
func TestRoadmapConsumesProjectedCorpora(t *testing.T) {
	for year := 2016; year <= 2024; year += 2 {
		spec := survey.DefaultSpec(uint64(year))
		spec.Rates = core.ProjectedRates(year)
		c, err := survey.Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		roadmap, err := core.BuildRoadmap(c, year)
		if err != nil {
			t.Fatal(err)
		}
		if len(roadmap.Recommendations) != 12 {
			t.Fatalf("year %d: %d recommendations", year, len(roadmap.Recommendations))
		}
		for _, rec := range roadmap.Recommendations {
			if rec.Priority <= 0 || rec.Priority > 1 {
				t.Fatalf("year %d rec %d: priority %v", year, rec.ID, rec.Priority)
			}
		}
	}
}
