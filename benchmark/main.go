// Command benchmark is the repository's benchmark: five workloads from
// a library call to a rethinkd request, measured on two clocks (host
// and modeled), checked row-for-row against the serial row engine, with
// a separate traced run that times each layer's public functions. See
// README.md for the metric and workload definitions.
//
// The driver's form (BENCHMARK.json):
//
//	benchmark --workload W --seed N --seconds S --trace 0|1
//
// prints one JSON object as the last line of standard output. Other
// modes: -all runs every workload traced and untraced and prints the
// report; -compare a.json b.json judges two -out files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runCfg is one run's input.
type runCfg struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Scale    scale
	// DaemonBin is the rethinkd binary the daemon workloads spawn.
	DaemonBin string
	// OutDir receives the span dump of a traced run.
	OutDir string
	// tr records spans; nil on the untraced run.
	tr *tracer
	// corruptRef makes the reference wrong on purpose, so the smoke test
	// can show the correctness gate fails a run.
	corruptRef bool
}

// environment is recorded in every output file.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv() environment {
	// The commit is known only when run from a git checkout of the
	// repository (its root or the benchmark directory).
	commit := "unknown"
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, ".git")); err != nil {
			continue
		}
		if out, err := exec.Command("git", "-C", dir, "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
		break
	}
	return environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit}
}

// runResult is one run's output.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Env       environment        `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the sample count behind each percentile metric.
	Samples map[string]int `json:"samples"`
	// Notes are report lines that are not metrics (the two-clock line).
	Notes []string `json:"notes,omitempty"`
	// wallS is the wall time of the measured section; traceFile is where
	// a traced run dumped its spans.
	wallS     float64
	traceFile string
}

func newResult(rc runCfg) *runResult {
	return &runResult{
		Workload: rc.Workload, Seed: rc.Seed, Seconds: rc.Seconds, Traced: rc.Trace,
		Env: currentEnv(), Metrics: map[string]float64{}, Samples: map[string]int{},
	}
}

func (r *runResult) set(name string, v float64) { r.Metrics[name] = v }

// finish folds a recorder into the result: the verdict, the class
// medians and p90s with their sample counts, and the geometric mean of
// the class medians.
func (r *runResult) finish(rec *recorder, classOrder []string) {
	r.Attempted, r.Failed, r.Errors = rec.attempted, rec.failed, rec.errs
	r.Correct = rec.failed == 0 && rec.attempted > 0
	for _, c := range classOrder {
		xs := rec.lat[c]
		if len(xs) == 0 {
			continue
		}
		r.set(c+"_p50_ms", median(xs))
		r.set("serve.class_p90_ms."+c, quantile(xs, 0.90))
		r.Samples[c+"_p50_ms"] = len(xs)
	}
	r.set("class_p50_geomean_ms", geomean(rec.classP50s(classOrder)))
	r.Samples["latency_p90_ms"] = len(rec.all())
}

func classNames() []string {
	out := make([]string, len(classes))
	for i, c := range classes {
		out[i] = c.Name
	}
	return out
}

// runWorkload runs one workload, traced or not.
func runWorkload(rc runCfg) (*runResult, error) {
	if rc.Trace {
		rc.tr = newTracer()
	}
	var res *runResult
	var err error
	switch rc.Workload {
	case wOlapLocal, wOlapDist, wOlapDistAllOn:
		res, err = runOlap(rc)
	case wServeMixed:
		res, err = runServeMixed(rc)
	case wStreamRW:
		res, err = runStreamRW(rc)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", rc.Workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	if rc.Trace {
		// Tracing overhead of the workload pass: spans recorded times the
		// measured cost of recording one, over the pass's wall time.
		passSpans := rc.tr.count()
		if res.wallS > 0 {
			res.set("trace.overhead_share", float64(passSpans)*spanCostNS()/1e9/res.wallS)
		}
		if err := runProbes(rc, res); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		res.traceFile = filepath.Join(rc.OutDir, "trace-"+rc.Workload+".json")
		if err := rc.tr.write(res.traceFile); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// driverLine is the one JSON object the driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverJSON renders the result in the driver's form: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one. A
// per-layer metric the workload does not exercise reads 0.
func (r *runResult) driverJSON() ([]byte, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		line.Metrics[d.Name] = driverValue{Value: v, Unit: d.Unit}
	}
	return json.Marshal(line)
}

// printHuman lists every metric by name with its unit.
func (r *runResult) printHuman() {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (seed %d, %gs, %s) — %d ops attempted, %d failed\n", r.Workload, r.Seed, r.Seconds, mode, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Printf("   FAILED: %s\n", e)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("   %-44s %14.4f %s", n, r.Metrics[n], units[n])
		if k, ok := r.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Println(line)
	}
	for _, n := range r.Notes {
		fmt.Println("   " + n)
	}
}

// benchmarkJSON renders the driver's contract file from the names in
// spec.go and probes.go, so the two cannot drift.
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	better := func(d metricDef) string {
		if d.HigherBetter {
			return "higher"
		}
		return "lower"
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloadNames {
		doc.Workloads = append(doc.Workloads, workload{w, workloadWhy[w]})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, better(d), d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, better(d)})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is built from string and number literals
	}
	return append(data, '\n')
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// options are the command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	all      bool
	compare  bool
	spec     bool
	daemon   string
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: table data, class order, arrivals and event values derive from it")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured section")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = untraced run reporting end-to-end metrics")
	flag.StringVar(&o.out, "out", "", "also write the full result as JSON to this file")
	flag.BoolVar(&o.all, "all", false, "run every workload, untraced then traced, each in a fresh process, and print the report")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments: -compare a.json b.json")
	flag.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json as this program defines it")
	flag.StringVar(&o.daemon, "rethinkd", "", "rethinkd binary for the daemon workloads (default: beside this executable, else built into -outdir)")
	flag.StringVar(&o.outDir, "outdir", "", "directory for span dumps and built binaries (default: benchmark/out)")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.spec {
		_, err := os.Stdout.Write(benchmarkJSON())
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(args[0], args[1])
	}
	if o.outDir == "" {
		o.outDir = defaultOutDir()
	}
	if o.all {
		return runAll(o)
	}
	if o.workload == "" {
		return fmt.Errorf("need -workload, -all, -compare or -spec")
	}
	rc := runCfg{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace != 0, Scale: fullScale, OutDir: o.outDir}
	if o.workload == wServeMixed || o.workload == wStreamRW {
		bin, err := daemonBinary(o.daemon, o.outDir)
		if err != nil {
			return err
		}
		rc.DaemonBin = bin
	}
	res, err := runWorkload(rc)
	if err != nil {
		return err
	}
	res.printHuman()
	if o.out != "" {
		if err := writeJSON(o.out, []*runResult{res}); err != nil {
			return err
		}
	}
	line, err := res.driverJSON()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", o.workload, res.Failed, res.Attempted)
	}
	return nil
}

// atRepoRoot reports whether the working directory is the repository
// root (where the driver runs) rather than the benchmark directory
// (where `go run .` and `go test .` run).
func atRepoRoot() bool {
	_, err := os.Stat("benchmark/go.mod")
	return err == nil
}

// defaultOutDir is benchmark/out, from either directory.
func defaultOutDir() string {
	if atRepoRoot() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}
