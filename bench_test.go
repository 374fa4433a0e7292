package repro

// One benchmark per reproduced exhibit: the paper's Table 1 and Figure 1,
// the sixteen derived experiments E1–E16, and the DESIGN.md ablations.
// Each benchmark regenerates its experiment end-to-end and reports the
// headline numbers as custom metrics; `go test -bench . -benchmem` thus
// re-derives every row EXPERIMENTS.md records. Micro-benchmarks of the
// real building-block implementations follow at the bottom.

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/mapreduce"
	"repro/internal/workload"
)

// reportKeys attaches an experiment's key metrics to the benchmark.
func reportKeys(b *testing.B, r *experiments.Report, keys ...string) {
	b.Helper()
	for _, k := range keys {
		if v, ok := r.Key[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

func BenchmarkT1Consortium(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.T1()
	}
	reportKeys(b, r, "partners")
}

func BenchmarkF1Landscape(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.F1()
	}
	reportKeys(b, r, "initiatives", "topics_covered")
}

func BenchmarkE1CatapultTail(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E1()
	}
	reportKeys(b, r, "p99_cut_fraction", "p99_software", "p99_fpga")
}

func BenchmarkE2SDNScale(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E2()
	}
	reportKeys(b, r, "ops_ratio", "sdn_ops_at_max", "legacy_ops_at_max")
}

func BenchmarkE3BandwidthGen(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E3()
	}
	reportKeys(b, r, "speedup_400_vs_10", "maxfct_10", "maxfct_400")
}

func BenchmarkE4Disagg(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E4()
	}
	reportKeys(b, r, "granted_monolithic", "granted_composable", "stranded_cpu_fraction", "upgrade_cost_ratio")
}

func BenchmarkE5Accel10x(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E5()
	}
	reportKeys(b, r, "max_speedup", "cells_at_10x")
}

func BenchmarkE6GPGPUROI(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E6()
	}
	reportKeys(b, r, "breakeven_workrate_kernels_per_s", "savings_at_10", "savings_at_100000")
}

func BenchmarkE7SoCvsSiP(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E7()
	}
	reportKeys(b, r, "crossover_volume", "retrofit_nre_ratio")
}

func BenchmarkE8Abstractions(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E8()
	}
	reportKeys(b, r, "results_agree", "mr_shuffled", "df_shuffled")
}

func BenchmarkE9Portability(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E9()
	}
	reportKeys(b, r, "performance_portability", "spread_worst_over_best")
}

func BenchmarkE10Suite(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E10()
	}
	reportKeys(b, r, "overall_gpu", "overall_hetero", "energy_fpga")
}

func BenchmarkE11Blocks(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E11()
	}
	reportKeys(b, r, "gpu_speedup_matmul", "gpu_speedup_sort")
}

func BenchmarkE12HetSched(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E12()
	}
	reportKeys(b, r, "heft_vs_rr_speedup", "makespan_heft", "makespan_fifo")
}

func BenchmarkE13Findings(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E13()
	}
	reportKeys(b, r, "interviews", "companies", "findings_holding")
}

func BenchmarkE14Roadmap(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E14()
	}
	reportKeys(b, r, "recommendations", "top_priority_id", "near_term_actions")
}

func BenchmarkE15NFV(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E15()
	}
	reportKeys(b, r, "latency_appliance", "latency_nfv", "latency_nfv+offload", "price_ratio_hw_vs_sw")
}

func BenchmarkE16Convergence(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E16()
	}
	reportKeys(b, r, "shared_minus_seg_at_50", "shared_minus_seg_at_1.25")
}

func BenchmarkE17Neuromorphic(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E17()
	}
	reportKeys(b, r, "npu_advantage_at_1eps", "adoption_gap_years")
}

func BenchmarkE18DataPooling(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E18()
	}
	reportKeys(b, r, "mean_err_siloed", "mean_err_pooled", "viable_solo", "viable_pooled")
}

func BenchmarkE19Longitudinal(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E19()
	}
	reportKeys(b, r, "finding1_inversion_year", "bottleneck_awareness_2026")
}

func BenchmarkE20NVMTiering(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E20()
	}
	reportKeys(b, r, "saving_at_2us", "saving_at_20us")
}

func BenchmarkE21EdgeCloud(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E21()
	}
	reportKeys(b, r, "makespan_hybrid", "misses_cloud", "misses_hybrid")
}

func BenchmarkAblationFusion(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationFusion()
	}
	reportKeys(b, r, "fusion_speedup_xeon-2s/simd", "fusion_speedup_gpgpu/simt")
}

func BenchmarkAblationFairness(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationFairness()
	}
	reportKeys(b, r, "maxmin_fct", "proportional_fct")
}

func BenchmarkAblationSDNMode(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationSDNMode()
	}
	reportKeys(b, r, "reactive_first_packet_us", "proactive_rules")
}

func BenchmarkAblationSort(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationSort()
	}
	reportKeys(b, r, "radix_speedup_at_1M")
}

func BenchmarkAblationPacking(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationPacking()
	}
	reportKeys(b, r, "first_fit_granted", "best_fit_granted")
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the real building-block implementations.

func BenchmarkRadixSort1M(b *testing.B) {
	base := make([]uint64, 1<<20)
	st := uint64(7)
	for i := range base {
		st = st*2862933555777941757 + 3037000493
		base[i] = st
	}
	buf := make([]uint64, len(base))
	b.SetBytes(int64(len(base) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		kernels.RadixSortUint64(buf)
	}
}

func BenchmarkHashJoin(b *testing.B) {
	build := make([]kernels.Pair, 1<<16)
	probe := make([]kernels.Pair, 1<<18)
	for i := range build {
		build[i] = kernels.Pair{Key: uint64(i), Val: int64(i)}
	}
	for i := range probe {
		probe[i] = kernels.Pair{Key: uint64(i % (1 << 16)), Val: int64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.HashJoin(build, probe)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	n := 256
	a := make([]float64, n*n)
	bb := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i % 97)
		bb[i] = float64(i % 89)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.MatMulNew(a, bb, n, n, n)
	}
}

func BenchmarkPageRank(b *testing.B) {
	g := workload.RMAT(3, 1<<14, 1<<17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.PageRank(g, 0.85, 1e-8, 50)
	}
}

func BenchmarkSubstringScan(b *testing.B) {
	docs := workload.Corpus(13, 100, 400, 800)
	var text []byte
	for _, d := range docs {
		for _, w := range d.Words {
			text = append(text, w...)
			text = append(text, ' ')
		}
	}
	pat := []byte("data")
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.SubstringScan(text, pat)
	}
}

func BenchmarkMapReduceWordCount(b *testing.B) {
	docs := workload.Corpus(5, 200, 200, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := mapreduce.Run(mapreduce.Config{MapTasks: 8, ReduceTasks: 4}, docs,
			func(d workload.Doc, emit func(string, int)) {
				for _, w := range d.Words {
					emit(w, 1)
				}
			},
			func(a, c int) int { return a + c },
			func(_ string, vs []int) int {
				t := 0
				for _, v := range vs {
					t += v
				}
				return t
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataflowPipeline(b *testing.B) {
	recs := workload.RecordStream(7, 50000, 256, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dataflow.FromSlice("recs", recs, 8)
		keyed := dataflow.Map(
			dataflow.KeyBy(d, func(r workload.Record) string { return r.Key }),
			func(p dataflow.Pair[string, workload.Record]) dataflow.Pair[string, float64] {
				return dataflow.Pair[string, float64]{Key: p.Key, Val: p.Val.Value}
			})
		sum := dataflow.ReduceByKey(keyed, func(a, c float64) float64 { return a + c })
		if _, err := dataflow.Collect(sum); err != nil {
			b.Fatal(err)
		}
	}
}
