package relational

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/sim"
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

// spreadTables returns benchTables with every cust key mapped by key: the
// same rows, groups and matches under another key layout.
func spreadTables(key func(cust int64) int64) (fact, dim *Relation) {
	spread := func(r *Relation, col int) *Relation {
		cols := slices.Clone(r.Columnar())
		keys := make([]int64, r.Len())
		for i, c := range cols[col].Ints {
			keys[i] = key(c)
		}
		cols[col] = Vector{T: Int, Ints: keys}
		return NewColumnRelation(r.Name, r.Schema, cols, r.Len())
	}
	fact, dim = benchTables()
	return spread(fact, 1), spread(dim, 0)
}

// benchSparseTables spread every cust key over the int64 range (Knuth's
// multiplicative constant, offset clear of zero), so a key column's span
// never fits a direct window and the key tables stay hashed.
var benchSparseTables = sync.OnceValues(func() (fact, dim *Relation) {
	return spreadTables(func(cust int64) int64 { return cust*2654435761 + 1<<40 })
})

// benchWideTables space the cust keys 16 apart: 50k keys then span about
// twice the widest direct window for 50k keys, so a key table sized for
// them starts direct, widens, and turns hashed.
var benchWideTables = sync.OnceValues(func() (fact, dim *Relation) {
	return spreadTables(func(cust int64) int64 { return cust * 16 })
})

// BenchmarkBatchGroupAgg50kGroups draws its keys uniformly: ~50k groups,
// nearly every one in both workers' halves.
func BenchmarkBatchGroupAgg50kGroups(b *testing.B) { benchGroupAgg(b, benchTables, 2) }

// benchZipfTables is benchTables with the cust keys drawn from Zipf(0.9)
// over 50k keys — the skew of the demo sales.customer_id — instead of
// uniformly: ~39k groups, the hot ones in every morsel.
var benchZipfTables = sync.OnceValues(func() (fact, dim *Relation) {
	z := sim.NewZipf(sim.NewRNG(1), 0.9, 50000)
	return spreadTables(func(int64) int64 { return int64(z.Next()) })
})

// BenchmarkBatchGroupAggZipf is the operator under the benchmark's
// groupby class: 2^18 rows over Zipf-skewed keys, two workers.
func BenchmarkBatchGroupAggZipf(b *testing.B) { benchGroupAgg(b, benchZipfTables, 2) }

func BenchmarkBatchGroupAggSparseKeys(b *testing.B) { benchGroupAgg(b, benchSparseTables, 2) }

// BenchmarkBatchGroupAggWideKeys runs four partitions, so MergeAll indexes
// the middle partials' groups in a table reserved for all of them: the
// path where a window widens to its limit before the table hashes.
func BenchmarkBatchGroupAggWideKeys(b *testing.B) { benchGroupAgg(b, benchWideTables, 4) }

func benchGroupAgg(b *testing.B, tables func() (fact, dim *Relation), workers int) {
	fact, _ := tables()
	aggs := []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 2, Name: "revenue"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := NewBatchGroupAgg(NewBatchScan(fact), []int{1}, aggs, workers)
		if err != nil {
			b.Fatal(err)
		}
		if drainBench(b, op) == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkBatchHashJoin(b *testing.B) { benchHashJoin(b, benchTables) }

func BenchmarkBatchHashJoinSparseKeys(b *testing.B) { benchHashJoin(b, benchSparseTables) }

func benchHashJoin(b *testing.B, tables func() (fact, dim *Relation)) {
	fact, dim := tables()
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

// BenchmarkBatchHashJoinStringGroup is the join class's shape: the fact
// table probes the dimension on cust and the joined rows group by the
// build side's segment, a 5-value String column the dimension's transpose
// dictionary-codes — so the build payload gathers int32 codes and the
// group-by resolves each through a code translation.
func BenchmarkBatchHashJoinStringGroup(b *testing.B) {
	fact, dim := benchTables()
	aggs := []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 4, Name: "revenue"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join, err := NewBatchHashJoin(NewBatchScan(dim), NewBatchScan(fact), 0, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		op, err := NewBatchGroupAgg(join, []int{1}, aggs, 2)
		if err != nil {
			b.Fatal(err)
		}
		if drainBench(b, op) != 5 {
			b.Fatal("want 5 segments")
		}
	}
}

// benchPlainStringTables is the fact table with its cust key rendered as
// a String column of 50k distinct names, held plain: the key path of a
// String column StringVector leaves uncoded (too many distinct values).
var benchPlainStringTables = sync.OnceValues(func() (fact, dim *Relation) {
	fact, dim = benchTables()
	cols := slices.Clone(fact.Columnar())
	names := make([]string, fact.Len())
	for i, c := range cols[1].Ints {
		names[i] = fmt.Sprintf("cust-%05d", c)
	}
	cols[1] = Vector{T: String, Strs: names}
	schema := slices.Clone(fact.Schema)
	schema[1].Type = String
	return NewColumnRelation(fact.Name, schema, cols, fact.Len()), dim
})

// BenchmarkBatchGroupAggPlainStrings groups on 50k distinct plain strings.
func BenchmarkBatchGroupAggPlainStrings(b *testing.B) { benchGroupAgg(b, benchPlainStringTables, 2) }

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

// BenchmarkExtendNewKeys appends 512-row batches, each bringing 64 keys
// the table has not seen beside repeats of 50 old ones, to a coded String
// column whose dictionary already holds d entries: one op is one batch
// (built through StringVector, then ExtendColumns). The dictionary's
// encoder passes down the chain of first Extends, so ns/op and B/op stay
// flat as d grows: a batch costs its own cells, never a copy of the
// dictionary.
func BenchmarkExtendNewKeys(b *testing.B) {
	for _, d := range []int{1 << 10, 1 << 14, 1 << 18} {
		b.Run(fmt.Sprint("d=", d), func(b *testing.B) {
			fresh := 0
			batch := func() []Vector {
				strs := make([]string, 512)
				for i := range strs {
					if i%8 == 0 {
						strs[i] = "new-" + strconv.Itoa(fresh)
						fresh++
					} else {
						strs[i] = "old-" + strconv.Itoa(i%50)
					}
				}
				return []Vector{StringVector(strs)}
			}
			r := NewRelation("t", Schema{{Name: "s", Type: String}})
			for r.Len() == 0 || r.Columnar()[0].Dict.Len() < d {
				var err error
				if r, err = r.ExtendColumns(batch(), 512); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				var err error
				if r, err = r.ExtendColumns(batch(), 512); err != nil {
					b.Fatal(err)
				}
			}
			if r.Columnar()[0].Dict == nil {
				b.Fatal("the column went plain")
			}
		})
	}
}
