// Example hetero-sql sweeps the heterogeneous execution API across
// placement policies — the RETHINK big roadmap's Section IV.C.3 thesis
// that operators should run on whichever device class a cost model says
// is cheapest, made executable. One scan-heavy workload runs four ways
// on the same engine catalog: every morsel forced onto the modeled CPU,
// GPU and FPGA in turn, then under cost-based auto placement. Rows are
// identical in all four runs (devices model cost, not semantics); what
// changes is the modeled bill.
//
// The sweep's punchline is the roadmap's own: at 2016-era PCIe
// bandwidth, the bandwidth-bound SQL kernels never pay for the
// transfer, so forcing the GPU buys a transfer-dominated slowdown,
// forcing the FPGA thrashes bitstream reconfigurations when adjacent
// morsels want different kernels, and the cost-based policy's real job
// is *refusing* offload — exactly the "accelerators must integrate
// closer to memory and network" argument (Recommendations 4 and 10).
// The per-kernel estimates close with the Pennycook
// performance-portability score, quantifying how far each device class
// sits from the per-kernel optimum. A final distributed act shows each
// simulated worker host placing its shard's morsels independently.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/accel"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/sql"
)

const (
	rows      = 200000
	customers = 1000
)

const query = "SELECT region, COUNT(*) AS n, SUM(price * (1 - discount)) AS net " +
	"FROM sales WHERE year >= 2013 AND quantity <= 6 GROUP BY region ORDER BY net DESC"

func engine(devices []string, placement string, distributed bool) *sql.Engine {
	cfg := sql.DefaultConfig()
	cfg.Devices = devices
	cfg.Placement = placement
	if distributed {
		cfg.Distributed = true
		cfg.Shards = 4
		cfg.Topology = "leafspine"
	}
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sql.RegisterDemo(eng, 42, rows, customers)
	return eng
}

func run(eng *sql.Engine) *sql.Result {
	res, err := eng.Session().Query(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	fmt.Println("== Act 1: one workload, four placements ==")
	fmt.Printf("query: %s\n%d sales rows; morsels priced per device via roofline descriptors\n\n", query, rows)

	devices := []string{"cpu", "gpu", "fpga"}
	table := metrics.NewTable("placement sweep (identical rows in every run)",
		"placement", "modeled time", "energy", "xfer", "reconfig", "morsel split")
	var firstRows string
	var cpuSeconds, autoSeconds float64
	for _, placement := range []string{"cpu", "gpu", "fpga", "auto"} {
		res := run(engine(devices, placement, false))
		sig := fmt.Sprintf("%d rows / %v", res.Rows.Len(), res.Rows.RowView()[0])
		if firstRows == "" {
			firstRows = sig
		} else if sig != firstRows {
			log.Fatalf("placement %s changed the result: %s vs %s", placement, sig, firstRows)
		}
		var sec, energy, xfer, setup float64
		split := ""
		for _, d := range res.Devices {
			sec += d.Seconds
			energy += d.EnergyJ
			xfer += d.TransferSeconds
			setup += d.SetupSeconds
			if split != "" {
				split += " "
			}
			split += fmt.Sprintf("%s:%d", d.Device, d.Morsels)
		}
		switch placement {
		case "cpu":
			cpuSeconds = sec
		case "auto":
			autoSeconds = sec
		}
		table.AddRow(placement,
			metrics.FormatSeconds(sec), fmt.Sprintf("%.3g J", energy),
			metrics.FormatSeconds(xfer), metrics.FormatSeconds(setup), split)
	}
	fmt.Println(table.Render())
	fmt.Printf("all four placements returned: %s\n", firstRows)
	fmt.Printf("auto vs cpu-only modeled time: %s vs %s (auto never loses — it may refuse offload)\n\n",
		metrics.FormatSeconds(autoSeconds), metrics.FormatSeconds(cpuSeconds))

	fmt.Println("== Act 2: why auto refuses — per-kernel estimates ==")
	morsel := 1 << 20 // a large sort-scale morsel, the offload best case
	kern := []struct {
		name    string
		branchy bool
		desc    func() (k kernelDesc)
	}{
		{"filter", true, func() kernelDesc { return kernelDesc{kernels.FilterDescriptor(morsel, 0.5), 8 * 1.5 * float64(morsel)} }},
		{"sort", false, func() kernelDesc { return kernelDesc{kernels.SortDescriptor(morsel), 16 * float64(morsel)} }},
		{"aggregate", false, func() kernelDesc { return kernelDesc{kernels.AggregateDescriptor(morsel, 64), 8 * float64(morsel)} }},
	}
	est := metrics.NewTable(fmt.Sprintf("per-kernel estimates at %d rows (one-shot)", morsel),
		"kernel", "cpu", "gpu (xfer share)", "fpga (+reconfig)", "perf-portability")
	for _, kk := range kern {
		d := kk.desc()
		cpu := accel.NewCPU().EstimateKernel(d.k, kk.branchy, d.hostBytes)
		gpu := accel.NewGPU().EstimateKernel(d.k, kk.branchy, d.hostBytes)
		fpga := accel.NewFPGA().EstimateKernel(d.k, kk.branchy, d.hostBytes)
		pp := accel.PerformancePortability([]accel.Estimate{cpu, gpu, fpga})
		est.AddRow(kk.name,
			metrics.FormatSeconds(cpu.Seconds),
			fmt.Sprintf("%s (%.0f%%)", metrics.FormatSeconds(gpu.Seconds), 100*gpu.TransferSeconds/gpu.Seconds),
			fmt.Sprintf("%s (+%s)", metrics.FormatSeconds(fpga.Seconds), metrics.FormatSeconds(fpga.SetupSeconds)),
			fmt.Sprintf("%.2f", pp))
	}
	fmt.Println(est.Render())
	fmt.Println("PCIe transfer dominates every GPU estimate: the roadmap's case for tighter integration.")
	fmt.Println()

	fmt.Println("== Act 3: distributed — every worker host places independently ==")
	res := run(engine(devices, "auto", true))
	fmt.Printf("4-shard leafspine run, placement %s:\n", res.Placement)
	for _, d := range res.Devices {
		fmt.Printf("  %s\n", d)
	}
	if res.Net != nil {
		fmt.Printf("network: %s shuffled in %s simulated\n",
			metrics.FormatBytes(res.Net.BytesShuffled), metrics.FormatSeconds(res.Net.NetSeconds))
	}
}

// kernelDesc pairs a roofline descriptor with the host bytes an offload
// of it would move.
type kernelDesc struct {
	k         hw.Kernel
	hostBytes float64
}
