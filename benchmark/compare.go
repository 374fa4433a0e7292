package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// loadResults reads a file written by -out or -all: a JSON array of
// run results.
func loadResults(path string) ([]*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*runResult
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// sampleKey groups the values of one metric on one workload.
type sampleKey struct{ workload, metric string }

// collect gathers each metric's values per workload: end-to-end metrics
// from untraced runs, per-layer metrics from traced ones.
func collect(rs []*runResult) map[sampleKey][]float64 {
	out := map[sampleKey][]float64{}
	for _, r := range rs {
		defs := endToEnd
		if r.Traced {
			defs = perLayer
		}
		for _, d := range defs {
			if v, ok := r.Metrics[d.Name]; ok {
				k := sampleKey{r.Workload, d.Name}
				out[k] = append(out[k], v)
			}
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a
// share of the median; with fewer than four values, the range.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	if len(xs) < 4 {
		return (quantile(xs, 1) - quantile(xs, 0)) / math.Abs(m)
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// verdict judges b against a for one metric: "unresolved" when either
// side's own spread is wider than the bound, "worse" when b's median is
// worse than a's by more than the bound, else "ok".
func verdict(d metricDef, a, b []float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / math.Abs(ma)
	}
	worse := delta
	if d.HigherBetter {
		worse = -delta
	}
	switch {
	case d.Exact:
		if ma == mb && spread(a) == 0 && spread(b) == 0 {
			return delta, "ok"
		}
		return delta, "changed"
	case d.Bound == 0:
		return delta, ""
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return delta, "unresolved"
	case worse > d.Bound:
		return delta, "worse"
	}
	return delta, "ok"
}

// compareFiles prints, per workload and metric, both medians, the
// delta, the bound and the verdict. It fails when any end-to-end metric
// is worse.
func compareFiles(pathA, pathB string) error {
	ra, err := loadResults(pathA)
	if err != nil {
		return err
	}
	rb, err := loadResults(pathB)
	if err != nil {
		return err
	}
	a, b := collect(ra), collect(rb)
	bad := 0
	for _, w := range workloadNames {
		fmt.Printf("== %s\n", w)
		fmt.Printf("   %-44s %14s %14s %8s %6s  %s\n", "metric", "a (median)", "b (median)", "delta", "bound", "verdict")
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			k := sampleKey{w, d.Name}
			if len(a[k]) == 0 || len(b[k]) == 0 {
				continue
			}
			delta, v := verdict(d, a[k], b[k])
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			} else if d.Exact {
				bound = "exact"
			}
			fmt.Printf("   %-44s %14.4f %14.4f %+7.1f%% %6s  %s  (n=%d/%d, spread %.1f%%/%.1f%%)\n",
				d.Name, median(a[k]), median(b[k]), delta*100, bound, v, len(a[k]), len(b[k]), spread(a[k])*100, spread(b[k])*100)
			if v == "worse" || v == "changed" {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) worse or changed", bad)
	}
	return nil
}

// runAll runs every workload untraced then traced, each in a fresh
// process so peak_rss_mb is per workload, writes all results to one
// file and prints the report.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	daemon, err := daemonBinary(o.daemon, o.outDir)
	if err != nil {
		return err
	}
	out, outDir := o.out, o.outDir
	if out == "" {
		out = filepath.Join(outDir, "results.json")
	}
	var all []*runResult
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			tmp := filepath.Join(outDir, "run-"+w+"-"+trace+".json")
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace,
				"-out", tmp, "-rethinkd", daemon, "-outdir", outDir)
			cmd.Stderr = os.Stderr
			if _, err := cmd.Output(); err != nil {
				return fmt.Errorf("%s (trace %s): %w", w, trace, err)
			}
			rs, err := loadResults(tmp)
			if err != nil {
				return err
			}
			all = append(all, rs...)
		}
	}
	if err := writeJSON(out, all); err != nil {
		return err
	}
	printReport(all)
	fmt.Printf("results written to %s\n", out)
	return nil
}

// printReport prints every run's metrics, then the lines that read
// across runs.
func printReport(all []*runResult) {
	untraced, traced := map[string]*runResult{}, map[string]*runResult{}
	for _, r := range all {
		r.printHuman()
		if r.Traced {
			traced[r.Workload] = r
		} else {
			untraced[r.Workload] = r
		}
	}
	fmt.Println("== across runs")
	names := make([]string, 0, len(untraced))
	for w := range untraced {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		if t := traced[w]; t != nil && t.Metrics["throughput_ops_s"] > 0 {
			fmt.Printf("   %-16s traced run throughput %.1f%% below the untraced run's (span recording itself: %.4f%% of the pass)\n",
				w, (untraced[w].Metrics["throughput_ops_s"]/t.Metrics["throughput_ops_s"]-1)*100, t.Metrics["trace.overhead_share"]*100)
		}
	}
	local, distd := traced[wOlapLocal], traced[wOlapDist]
	if local != nil && distd != nil {
		for _, m := range []string{"join_p50_ms", "alloc_mb_per_op"} {
			if base := local.Metrics[m]; base > 0 {
				fmt.Printf("   olap_dist / olap_local %-18s %.2fx  (%.2f / %.2f)\n", m, distd.Metrics[m]/base, distd.Metrics[m], base)
			}
		}
	}
	if local != nil {
		for _, c := range classes {
			tree, self := local.Metrics[treeMetric[c.Name]], local.Metrics["sql.exec_self_ms."+c.Name]
			fmt.Printf("   olap_local %-8s tree %.2f ms + sql self %.2f ms = %.2f ms; class median %.2f ms\n",
				c.Name, tree, self, tree+self, local.Metrics[c.Name+"_p50_ms"])
		}
	}
}
