package main

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// toyScale shrinks every workload so the whole benchmark runs in
// seconds: 2^12-row tables, 5 000 streamed events.
var toyScale = scale{
	OlapRows: 1 << 12, Customers: 500,
	ServeRows:   1 << 12,
	BatchEvents: 500, Keys: 50, ReadEvery: 5,
	BatchesPerSecond: 50,
	OpenLoopRate:     100,
	SetupRepeats:     1,
	ProbeIters:       1,
	ProbeRows:        1 << 12,
}

const toySeconds = 0.2

var testDaemon string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test")
	if err != nil {
		panic(err)
	}
	testDaemon, err = buildDaemon(dir)
	if err != nil {
		os.RemoveAll(dir)
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func toyRun(t *testing.T, workload string, trace, corrupt bool) *runResult {
	t.Helper()
	res, err := runWorkload(runCfg{
		Workload: workload, Seed: 7, Seconds: toySeconds, Trace: trace, Scale: toyScale,
		DaemonBin: testDaemon, OutDir: t.TempDir(), corruptRef: corrupt,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestSmoke runs all five workloads traced at toy scale. Every named
// metric must be present and finite, every end-to-end metric non-zero,
// and the exact counts must repeat in a second run.
func TestSmoke(t *testing.T) {
	produced := map[string]bool{}
	for _, w := range workloadNames {
		res := toyRun(t, w, true, false)
		if !res.Correct || res.Attempted == 0 {
			t.Fatalf("%s: %d of %d ops failed: %v", w, res.Failed, res.Attempted, res.Errors)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v)", w, d.Name, v, ok)
			}
		}
		if _, err := res.driverJSON(); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		for name := range res.Metrics {
			produced[name] = true
		}
		if _, err := os.Stat(res.traceFile); err != nil {
			t.Errorf("%s: span dump: %v", w, err)
		}

		// The untraced repeat has the workload pass's exact counts, not
		// the probes'.
		again := toyRun(t, w, false, false)
		for _, d := range perLayer {
			if v, ok := again.Metrics[d.Name]; ok && d.Exact && res.Metrics[d.Name] != v {
				t.Errorf("%s: %s did not repeat: %v then %v", w, d.Name, res.Metrics[d.Name], v)
			}
		}
	}
	for _, d := range perLayer {
		if !produced[d.Name] {
			t.Errorf("per-layer metric %s was produced by no workload", d.Name)
		}
	}
}

// TestCorruptReferenceFailsRun shows the correctness gate is live: with
// a deliberately wrong reference, operations fail and the run is
// incorrect, through a library call, an HTTP request and a stream read.
func TestCorruptReferenceFailsRun(t *testing.T) {
	for _, w := range []string{wOlapLocal, wServeMixed, wStreamRW} {
		res := toyRun(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted reference passed (%d failed of %d)", w, res.Failed, res.Attempted)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps the driver's contract file equal
// to the names this program reports.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `benchmark -spec`; regenerate it")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "ms", Bound: 0.10}
	higher := metricDef{Name: "ops", Bound: 0.10, HigherBetter: true}
	exact := metricDef{Name: "count", Exact: true}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{115, 114, 116, 115, 115}, "worse"},
		{lower, steady, []float64{85, 84, 86, 85, 85}, "ok"},
		{higher, steady, []float64{85, 84, 86, 85, 85}, "worse"},
		{lower, steady, []float64{80, 130, 100, 150, 60}, "unresolved"},
		{exact, []float64{7, 7}, []float64{7, 7}, "ok"},
		{exact, []float64{7, 7}, []float64{7, 7.5}, "changed"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v vs %v: got %q, want %q", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}
