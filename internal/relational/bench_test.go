package relational

import (
	"math/rand"
	"sync"
	"testing"
)

// Operator-rung benchmarks: each pipeline breaker alone over 2^18 rows,
// two workers, so a regression here is caught by `go test -bench Batch
// ./internal/relational` without the repository benchmark harness.

const benchRows = 1 << 18

// benchTables builds a fact table (id, cust, price, qty) with 50k distinct
// cust values and the matching dimension (cust, segment).
var benchTables = sync.OnceValues(func() (fact, dim *Relation) {
	rng := rand.New(rand.NewSource(1))
	const custs = 50000
	fact = NewRelation("fact", Schema{
		{Name: "id", Type: Int}, {Name: "cust", Type: Int},
		{Name: "price", Type: Float}, {Name: "qty", Type: Int},
	})
	for i := 0; i < benchRows; i++ {
		fact.Rows = append(fact.Rows, Row{
			IntV(int64(i)), IntV(int64(rng.Intn(custs))),
			FloatV(float64(rng.Intn(100000)) / 100), IntV(int64(1 + rng.Intn(9))),
		})
	}
	dim = NewRelation("dim", Schema{{Name: "cust", Type: Int}, {Name: "segment", Type: String}})
	segments := []string{"consumer", "corporate", "home office", "public", "smb"}
	for c := 0; c < custs; c++ {
		dim.Rows = append(dim.Rows, Row{IntV(int64(c)), StringV(segments[rng.Intn(len(segments))])})
	}
	fact.Columnar()
	dim.Columnar()
	return fact, dim
})

func drainBench(b *testing.B, op BatchOp) int {
	rows := 0
	for {
		bt, err := op.NextBatch()
		if err != nil {
			b.Fatal(err)
		}
		if bt == nil {
			return rows
		}
		rows += bt.Len()
	}
}

func BenchmarkBatchGroupAgg50kGroups(b *testing.B) {
	fact, _ := benchTables()
	aggs := []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 2, Name: "revenue"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := NewBatchGroupAgg(NewBatchScan(fact), []int{1}, aggs, 2)
		if err != nil {
			b.Fatal(err)
		}
		if drainBench(b, op) == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkBatchHashJoin(b *testing.B) {
	fact, dim := benchTables()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := NewBatchHashJoin(NewBatchScan(dim), NewBatchScan(fact), 0, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		if drainBench(b, NewExchange(op, 2)) != benchRows {
			b.Fatal("join lost rows")
		}
	}
}

func BenchmarkBatchSort2Keys(b *testing.B) {
	fact, _ := benchTables()
	keys := []SortKey{{Col: 2, Desc: true}, {Col: 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := NewBatchSort(NewBatchScan(fact), keys, 2)
		if err != nil {
			b.Fatal(err)
		}
		if drainBench(b, op) != benchRows {
			b.Fatal("sort lost rows")
		}
	}
}

func BenchmarkBatchTopK100(b *testing.B) {
	fact, _ := benchTables()
	keys := []SortKey{{Col: 2, Desc: true}, {Col: 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := NewBatchTopK(NewBatchScan(fact), keys, 100, 2)
		if err != nil {
			b.Fatal(err)
		}
		if drainBench(b, op) != 100 {
			b.Fatal("top-k row count")
		}
	}
}

// The out-of-core rungs run the same breakers under 2% of the fact
// table's bytes — the repository benchmark's budget — so a regression of
// relational.spill_agg_ms or relational.external_sort_ms shows here.

func benchBudget(fact *Relation) *MemoryBudget {
	return NewMemoryBudget(int64(0.02*fact.EncodedBytes()), flatDev{})
}

func BenchmarkSpillAggSplitFinish(b *testing.B) {
	fact, _ := benchTables()
	aggs := []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 2, Name: "revenue"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := NewBatchGroupAgg(NewBatchScan(fact), []int{1}, aggs, 2)
		if err != nil {
			b.Fatal(err)
		}
		op.SetBudget(benchBudget(fact))
		if drainBench(b, op) == 0 {
			b.Fatal("no groups")
		}
		if st := op.Stats().Spill; st == nil || st.Partitions == 0 {
			b.Fatal("aggregate never spilled")
		}
	}
}

func BenchmarkExternalSortMerge(b *testing.B) {
	fact, _ := benchTables()
	keys := []SortKey{{Col: 2, Desc: true}, {Col: 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := NewBatchSort(NewBatchScan(fact), keys, 2)
		if err != nil {
			b.Fatal(err)
		}
		op.SetBudget(benchBudget(fact))
		if drainBench(b, op) != benchRows {
			b.Fatal("sort lost rows")
		}
		if st := op.Stats().Spill; st == nil || st.Partitions == 0 {
			b.Fatal("sort never went external")
		}
	}
}

func BenchmarkBudgetedTopK(b *testing.B) {
	fact, _ := benchTables()
	keys := []SortKey{{Col: 2, Desc: true}, {Col: 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := NewBatchTopK(NewBatchScan(fact), keys, 100, 2)
		if err != nil {
			b.Fatal(err)
		}
		op.SetBudget(benchBudget(fact))
		if drainBench(b, op) != 100 {
			b.Fatal("top-k row count")
		}
		if st := op.Stats().Spill; st != nil {
			b.Fatalf("a top-k of 100 rows spilled: %+v", st)
		}
	}
}
