package experiments

import (
	"context"
	"math"
	"strings"
	"time"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/sql"
	"repro/internal/workload"
)

// E8 runs the same analytics — revenue by customer segment over the
// sales/customers star schema — through the three abstraction layers of
// Section IV.C: a SQL query, a hand-written MapReduce job, and a dataflow
// pipeline. All three must produce identical numbers; the table records
// what each abstraction costs (execution steps, shuffled records, wall
// time) and hides (the SQL user never sees a partition).
func E8() *Report {
	r := newReport("E8", "Query language vs framework abstractions",
		"Section IV.C.1: a shift away from query languages towards distributed frameworks; IV.C.3: no common abstraction works for everything")
	const (
		seed      = 42
		salesRows = 20000
		customers = 500
	)
	type segRev struct {
		seg string
		rev float64
	}

	// ---- SQL.
	eng, err := sql.NewEngine(sql.DefaultConfig())
	if err != nil {
		panic(err)
	}
	sql.RegisterDemo(eng, seed, salesRows, customers)
	sess := eng.Session()
	t0 := time.Now()
	res, err := sess.Query(context.Background(), `SELECT c.segment, SUM(s.price * (1 - s.discount) * s.quantity) AS revenue
		FROM sales s JOIN customers c ON s.customer_id = c.customer_id
		GROUP BY c.segment ORDER BY c.segment`)
	if err != nil {
		panic(err)
	}
	sqlWall := time.Since(t0)
	var sqlOut []segRev
	for _, row := range res.Rows.RowView() {
		sqlOut = append(sqlOut, segRev{seg: row[0].S, rev: row[1].F})
	}
	plan, err := sess.Explain(`SELECT c.segment, SUM(s.price) FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment`)
	if err != nil {
		panic(err)
	}
	sqlSteps := strings.Count(plan, "\n") + 1

	// ---- MapReduce: two chained jobs (join via tagged union, then
	// aggregate) — the classic relational-on-MapReduce contortion.
	sales := workload.Sales(seed, salesRows, customers)
	custs := workload.Customers(seed+1, customers)
	type tagged struct {
		isCust  bool
		segment string
		revenue float64
	}
	t0 = time.Now()
	joinIn := make([]tagged, 0, len(sales)+len(custs))
	keyOf := make([]int64, 0, len(sales)+len(custs))
	for _, c := range custs {
		joinIn = append(joinIn, tagged{isCust: true, segment: c.Segment})
		keyOf = append(keyOf, c.CustomerID)
	}
	for _, s := range sales {
		joinIn = append(joinIn, tagged{revenue: s.Price * (1 - s.Discount) * float64(s.Quantity)})
		keyOf = append(keyOf, s.CustomerID)
	}
	type idxRec struct {
		key int64
		val tagged
	}
	recs := make([]idxRec, len(joinIn))
	for i := range joinIn {
		recs[i] = idxRec{key: keyOf[i], val: joinIn[i]}
	}
	joined, ctr1, err := mapreduce.Run(mapreduce.Config{MapTasks: 4, ReduceTasks: 4}, recs,
		func(rec idxRec, emit func(int64, tagged)) { emit(rec.key, rec.val) },
		nil,
		func(_ int64, vals []tagged) tagged {
			// Reduce-side join: one customer record + n sales records.
			out := tagged{}
			for _, v := range vals {
				if v.isCust {
					out.segment = v.segment
				} else {
					out.revenue += v.revenue
				}
			}
			return out
		})
	if err != nil {
		panic(err)
	}
	perCust := make([]tagged, 0, len(joined))
	for _, v := range joined {
		perCust = append(perCust, v)
	}
	bySeg, ctr2, err := mapreduce.Run(mapreduce.Config{MapTasks: 4, ReduceTasks: 4}, perCust,
		func(t tagged, emit func(string, float64)) {
			if t.segment != "" {
				emit(t.segment, t.revenue)
			}
		},
		func(a, b float64) float64 { return a + b },
		func(_ string, vs []float64) float64 {
			t := 0.0
			for _, v := range vs {
				t += v
			}
			return t
		})
	if err != nil {
		panic(err)
	}
	mrWall := time.Since(t0)
	mrShuffle := ctr1.ShuffleRecords + ctr2.ShuffleRecords

	// ---- Dataflow.
	t0 = time.Now()
	salesDS := dataflow.FromSlice("sales", sales, 8)
	custDS := dataflow.FromSlice("customers", custs, 8)
	keyedSales := dataflow.Map(dataflow.KeyBy(salesDS, func(s workload.SalesRow) int64 { return s.CustomerID }),
		func(p dataflow.Pair[int64, workload.SalesRow]) dataflow.Pair[int64, float64] {
			s := p.Val
			return dataflow.Pair[int64, float64]{Key: p.Key, Val: s.Price * (1 - s.Discount) * float64(s.Quantity)}
		})
	keyedCust := dataflow.KeyBy(custDS, func(c workload.CustomerRow) int64 { return c.CustomerID })
	joinedDS := dataflow.Join(keyedSales, keyedCust)
	seg := dataflow.Map(joinedDS, func(p dataflow.Pair[int64, dataflow.Joined[float64, workload.CustomerRow]]) dataflow.Pair[string, float64] {
		return dataflow.Pair[string, float64]{Key: p.Val.Right.Segment, Val: p.Val.Left}
	})
	summed := dataflow.ReduceByKey(seg, func(a, b float64) float64 { return a + b })
	dfOut, err := dataflow.Collect(summed)
	if err != nil {
		panic(err)
	}
	dfWall := time.Since(t0)
	dfStages, dfTasks, dfShuffled := salesDS.M.Snapshot()
	_ = dfTasks

	// ---- Cross-check all three agree.
	mrMap := map[string]float64{}
	for k, v := range bySeg {
		mrMap[k] = v
	}
	dfMap := map[string]float64{}
	for _, kv := range dfOut {
		dfMap[kv.Key] = kv.Val
	}
	agree := 1.0
	for _, sr := range sqlOut {
		if math.Abs(mrMap[sr.seg]-sr.rev) > 1e-6*math.Abs(sr.rev) ||
			math.Abs(dfMap[sr.seg]-sr.rev) > 1e-6*math.Abs(sr.rev) {
			agree = 0
		}
	}

	tab := metrics.NewTable("Same analytics, three abstractions (20k sales × 500 customers)",
		"abstraction", "user writes", "plan steps / stages", "shuffled records", "wall (ms)")
	tab.AddRowf("SQL", "1 declarative query", sqlSteps, "hidden (engine-managed)", float64(sqlWall.Microseconds())/1000)
	tab.AddRowf("MapReduce", "2 jobs, manual tagged-union join", 2*3, mrShuffle, float64(mrWall.Microseconds())/1000)
	tab.AddRowf("dataflow", "1 pipeline, explicit keying", dfStages, dfShuffled, float64(dfWall.Microseconds())/1000)
	r.Tables = append(r.Tables, tab)
	r.Key["results_agree"] = agree
	r.Key["segments"] = float64(len(sqlOut))
	r.Key["mr_shuffled"] = float64(mrShuffle)
	r.Key["df_shuffled"] = float64(dfShuffled)
	return r
}

// E9 executes one portable program on the three backend models and
// reports the performance-portability gap.
func E9() *Report {
	r := newReport("E9", "Correctness- vs performance-portability",
		`Section IV.C.3: "OpenCL only ensures correctness of the computation on each platform. It does not ensure that the computation has been optimized"`)
	p := &accel.Program{
		Name: "feature-normalize",
		Stages: []accel.Stage{
			accel.MapE(accel.Bin{Op: accel.Mul, L: accel.X{}, R: accel.Const(0.5)}),
			accel.MapE(accel.Bin{Op: accel.Add, L: accel.Un{Op: accel.Sq, E: accel.X{}}, R: accel.Const(1)}),
			accel.FilterE(accel.Bin{Op: accel.Sub, L: accel.X{}, R: accel.Const(1.05)}),
			accel.ReduceE(accel.SumReduce),
		},
	}
	n := 1 << 22
	in := make([]float64, n)
	rngState := uint64(99)
	for i := range in {
		rngState = rngState*6364136223846793005 + 1442695040888963407
		in[i] = float64(rngState%2000)/1000 - 1
	}
	res, err := p.Run(in)
	if err != nil {
		panic(err)
	}
	var ests []accel.Estimate
	tab := metrics.NewTable("One program, three backends (4M elements)",
		"backend", "modeled time (ms)", "energy (J)", "setup (s)")
	for _, b := range accel.DefaultBackends() {
		est, err := b.Estimate(p, n, res.Selectivity)
		if err != nil {
			panic(err)
		}
		ests = append(ests, est)
		tab.AddRowf(est.Backend, est.Seconds*1000, est.EnergyJ, est.SetupSeconds)
	}
	pp := accel.PerformancePortability(ests)
	r.Tables = append(r.Tables, tab)
	r.Key["performance_portability"] = pp
	r.Key["result_scalar"] = res.Scalar
	best, worst := math.Inf(1), 0.0
	for _, e := range ests {
		if e.Seconds < best {
			best = e.Seconds
		}
		if e.Seconds > worst {
			worst = e.Seconds
		}
	}
	r.Key["spread_worst_over_best"] = worst / best
	return r
}

// AblationSort times the real radix sort against the stdlib comparison
// sort — the DESIGN.md sort ablation, measured, not modeled.
func AblationSort() *Report {
	r := newReport("ABL-sort", "Radix vs comparison sort (measured)",
		"DESIGN.md: radix vs comparison sort for the shuffle building block")
	sizes := []int{1 << 16, 1 << 18, 1 << 20}
	tab := metrics.NewTable("Wall time (ms) on this machine", "n", "radix", "stdlib", "radix speedup")
	var lastSpeedup float64
	for _, n := range sizes {
		base := make([]uint64, n)
		st := uint64(7)
		for i := range base {
			st = st*2862933555777941757 + 3037000493
			base[i] = st
		}
		a := append([]uint64(nil), base...)
		t0 := time.Now()
		radixSort(a)
		radixMS := float64(time.Since(t0).Microseconds()) / 1000
		b := append([]uint64(nil), base...)
		t0 = time.Now()
		comparisonSort(b)
		stdMS := float64(time.Since(t0).Microseconds()) / 1000
		lastSpeedup = stdMS / radixMS
		tab.AddRowf(n, radixMS, stdMS, lastSpeedup)
	}
	r.Tables = append(r.Tables, tab)
	r.Key["radix_speedup_at_1M"] = lastSpeedup
	return r
}

func radixSort(xs []uint64)      { kernelsRadix(xs) }
func comparisonSort(xs []uint64) { kernelsComparison(xs) }
