package main

// The names in this file are the benchmark's contract: BENCHMARK.json
// at the repository root lists the same workloads and metrics, and
// TestBenchmarkJSONMatchesSpec keeps the two from drifting.

// Workload names.
const (
	wOlapLocal     = "olap_local"
	wOlapDist      = "olap_dist"
	wOlapDistAllOn = "olap_dist_allon"
	wServeMixed    = "serve_mixed"
	wStreamRW      = "stream_rw"
)

var workloadNames = []string{wOlapLocal, wOlapDist, wOlapDistAllOn, wServeMixed, wStreamRW}

// workloadWhy records why each workload exists.
var workloadWhy = map[string]string{
	wOlapLocal:     "in-process single-node engine, one client: sql, relational and kernels do all the work, so a fabric, movement or serving change must show no change here",
	wOlapDist:      "same statements on 4 simulated shards with every default: adds dist, netsim and the batch-to-rows round trip at each fragment boundary; one client keeps the modeled clock exact",
	wOlapDistAllOn: "as olap_dist with every fork taken the other way (chunked movement, replication 2, devices, SDN reroute, 2% memory budget): a gain for the default path that costs this one shows here",
	wServeMixed:    "spawned rethinkd over loopback HTTP, two tenants: serve, wire and JSON encode and sessions contending in admission rounds; closed loop for capacity, open loop for tail latency",
	wStreamRW:      "spawned rethinkd, ingest batches beside reads on one growing table under an open subscription: a storage change that speeds reads but slows appends, or the reverse, shows here",
}

// runSeconds is the measured length of one driver run.
const runSeconds = 15

// stmtClass is one of the four statement classes. The text is the same
// in every workload that runs it.
type stmtClass struct {
	Name string
	SQL  string
}

// classes are chosen so each leans on a different operator: a wide
// filtered scan (row materialization, wire encode), a join with a
// 50k-row build side (broadcast/repartition, grace join under budget),
// a 50k-group aggregate (partial-agg gather, agg spill) and a top-k
// over 1/7 of the table (sort path, seq-merge gather).
var classes = []stmtClass{
	{"scan", "SELECT order_id, price FROM sales WHERE year >= 2015 AND quantity <= 4"},
	{"join", "SELECT c.segment, COUNT(*) AS n, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2012 GROUP BY c.segment ORDER BY net DESC"},
	{"groupby", "SELECT customer_id, COUNT(*) AS n, SUM(price) AS revenue FROM sales GROUP BY customer_id ORDER BY revenue DESC, customer_id LIMIT 10"},
	{"topk", "SELECT order_id, price, quantity FROM sales WHERE year >= 2016 ORDER BY price DESC, order_id LIMIT 100"},
}

const (
	// streamReadSQL is the dashboard read stream_rw issues beside its
	// writes; streamWindowSQL is the subscription held open meanwhile.
	streamReadSQL   = "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM events GROUP BY k ORDER BY total DESC, k"
	streamWindowSQL = "SELECT k, SUM(v) AS total, COUNT(*) AS n FROM events GROUP BY k"
)

// scale sizes a run. fullScale is what the driver measures; the smoke
// test shrinks every field. Table sizes are part of the workload
// definitions: to fit a tighter time cap, lower the run length, never
// these.
type scale struct {
	OlapRows, Customers int
	ServeRows           int
	// Stream schedule: BatchesPerSecond×seconds batches of BatchEvents
	// events over Keys keys, one read after every ReadEvery-th batch.
	// The schedule is a fixed count, not a deadline, so the table size
	// at each read repeats exactly.
	BatchEvents, Keys, ReadEvery int
	BatchesPerSecond             int
	// OpenLoopRate is serve_mixed's phase-B arrival rate in requests per
	// second: about half the closed-loop capacity measured on the
	// 2-vCPU reference box when the benchmark was defined, frozen here
	// and never derived at run time.
	OpenLoopRate float64
	// SetupRepeats is how many times a run sets up from scratch;
	// setup_s is the median.
	SetupRepeats int
	// ProbeIters is how many times the traced run repeats each layer
	// probe; the metric is the median.
	ProbeIters int
	// ProbeRows sizes the demo tables the layer probes run on.
	ProbeRows int
}

var fullScale = scale{
	OlapRows: 1 << 18, Customers: 50000,
	ServeRows:   1 << 16,
	BatchEvents: 500, Keys: 50, ReadEvery: 25,
	BatchesPerSecond: 130,
	OpenLoopRate:     15,
	SetupRepeats:     3,
	ProbeIters:       7,
	ProbeRows:        1 << 18,
}

// metricDef describes one reported metric.
type metricDef struct {
	Name string
	Unit string
	// HigherBetter is the direction of improvement.
	HigherBetter bool
	// Bound is the share of the baseline by which an end-to-end metric
	// may worsen before it counts as a regression (per-layer metrics
	// have none).
	Bound float64
	// Exact marks counts on the modeled clock or of work done that must
	// repeat exactly for one seed ("=" in the README).
	Exact bool
}

// endToEnd is reported by every workload of an untraced run. A bound
// applies to a metric on all five workloads, so the noisiest sets it.
// On the reference box (a 2-vCPU VM) sets of ten runs of one workload
// spread 3% in a quiet quarter hour and up to 15% in a noisy one, and
// medians of sets taken tens of minutes apart differ by up to 10%, so
// the host-clock bounds sit at the contract's maximum.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "ops/s", HigherBetter: true, Bound: 0.25},
	{Name: "class_p50_geomean_ms", Unit: "ms", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Bound: 0.20},
}
