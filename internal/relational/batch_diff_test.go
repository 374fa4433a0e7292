package relational

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/kernels"
)

// batchSource replays pre-cut batches, so the differential tests control
// batch boundaries (one row per batch, ragged last batch) that a
// BatchScan would hide. It partitions into contiguous ranges, as every
// Partitioner does.
type batchSource struct {
	schema  Schema
	batches []*Batch
	pos     int
}

func (s *batchSource) Schema() Schema { return s.schema }
func (s *batchSource) Stats() OpStats { return OpStats{} }

func (s *batchSource) NextBatch() (*Batch, error) {
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	s.pos++
	return s.batches[s.pos-1], nil
}

func (s *batchSource) Partition(n int) []BatchOp {
	n = max(1, min(n, len(s.batches)))
	parts := make([]BatchOp, n)
	for i := range parts {
		lo, hi := len(s.batches)*i/n, len(s.batches)*(i+1)/n
		parts[i] = &batchSource{schema: s.schema, batches: s.batches[lo:hi]}
	}
	return parts
}

// cutBatches slices rel into batches of per rows (the last one ragged).
func cutBatches(rel *Relation, per int) *batchSource {
	src := &batchSource{schema: rel.Schema}
	for lo := 0; lo < rel.Len(); lo += per {
		hi := min(lo+per, rel.Len())
		b := BatchOf(rel.Schema, rel.Slice(lo, hi).Columnar(), hi-lo)
		b.Seq = int64(len(src.batches))
		src.batches = append(src.batches, b)
	}
	return src
}

// diffSchema: an Int, a Float and a String key column, then an Int and a
// Float payload. The Float payload only ever holds multiples of 0.25 in
// a small range, so float sums are exact under any association and the
// partition-merged batch sums must equal the serial ones bit for bit.
var diffSchema = Schema{
	{Name: "ki", Type: Int}, {Name: "kf", Type: Float}, {Name: "ks", Type: String},
	{Name: "vi", Type: Int}, {Name: "vf", Type: Float},
}

var (
	advInts   = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, 1 << 53, 1<<53 + 1, -(1 << 53) - 1, 7, 7}
	advFloats = []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -1.5, 1.5, 5e-324, -5e-324, math.MaxFloat64, 1.5}
	advStrs   = []string{"", "a", "b", "a", "ab", "B", "\x00", "a\x00", "zz", "b"}
)

func diffRow(rng *rand.Rand, ki int64, kf float64, ks string) Row {
	return Row{IntV(ki), FloatV(kf), StringV(ks), IntV(int64(rng.Intn(2000) - 1000)), FloatV(float64(rng.Intn(4001)-2000) / 4)}
}

// diffRelations returns the generated inputs: adversarial key values in
// every combination order, few-distinct random keys (duplicates, ties),
// all-equal keys, one row, and empty.
func diffRelations() map[string]*Relation {
	rng := rand.New(rand.NewSource(11))
	out := map[string]*Relation{}
	adv := NewRelation("adversarial", diffSchema)
	for i := 0; i < 60; i++ {
		adv.MustAppend(diffRow(rng, advInts[rng.Intn(len(advInts))], advFloats[rng.Intn(len(advFloats))], advStrs[rng.Intn(len(advStrs))]))
	}
	out[adv.Name] = adv
	dup := NewRelation("duplicates", diffSchema)
	for i := 0; i < 157; i++ {
		dup.MustAppend(diffRow(rng, int64(rng.Intn(5)-2), float64(rng.Intn(3)), advStrs[rng.Intn(3)]))
	}
	out[dup.Name] = dup
	same := NewRelation("all-equal", diffSchema)
	for i := 0; i < 23; i++ {
		same.MustAppend(diffRow(rng, 4, 2.5, "k"))
	}
	out[same.Name] = same
	one := NewRelation("one-row", diffSchema)
	one.MustAppend(diffRow(rng, -9, math.Inf(-1), ""))
	out[one.Name] = one
	out["empty"] = NewRelation("empty", diffSchema)
	return out
}

// requireIdenticalRows is requireSameRows with floats compared by bits,
// so -0.0 vs +0.0 and NaN payloads count.
func requireIdenticalRows(t *testing.T, want, got []Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row counts differ: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("row %d arity differs: want %d, got %d", i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			w, g := want[i][j], got[i][j]
			if w.T != g.T || w.I != g.I || math.Float64bits(w.F) != math.Float64bits(g.F) || w.S != g.S {
				t.Fatalf("row %d col %d differs: want %v (%v), got %v (%v)", i, j, w, w.T, g, g.T)
			}
		}
	}
}

// forEachShape runs fn over every input relation x batch size x worker
// count: one row per batch, a small size with a ragged last batch, and
// one batch holding everything.
func forEachShape(t *testing.T, fn func(t *testing.T, rel *Relation, src func() BatchOp, workers int)) {
	for name, rel := range diffRelations() {
		for _, per := range []int{1, 7, 1024} {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/per%d/w%d", name, per, workers), func(t *testing.T) {
					fn(t, rel, func() BatchOp { return cutBatches(rel, per) }, workers)
				})
			}
		}
	}
}

// diffBudgets are the memory budgets the pipeline breakers are diffed
// under: none, one that holds a row or a group at most (every generation
// and run spills, a top-k degrades on its second row), and one that holds
// a dozen (a top-k degrades mid-stream, its heap part full).
var diffBudgets = []int64{0, 48, 600}

// diffBudget returns the budget of the given size (nil for 0).
func diffBudget(limit int64) *MemoryBudget {
	if limit == 0 {
		return nil
	}
	return tinyBudget(limit)
}

func TestDiffGroupAgg(t *testing.T) {
	aggs := []AggSpec{
		{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 3, Name: "si"}, {Fn: SumAgg, Col: 4, Name: "sf"},
		{Fn: AvgAgg, Col: 3, Name: "ai"}, {Fn: MinAgg, Col: 0, Name: "mi"}, {Fn: MaxAgg, Col: 0, Name: "xi"},
		{Fn: MinAgg, Col: 1, Name: "mf"}, {Fn: MaxAgg, Col: 2, Name: "xs"},
	}
	forEachShape(t, func(t *testing.T, rel *Relation, src func() BatchOp, workers int) {
		for _, groupCols := range [][]int{{0}, {1}, {2}, {0, 2}, {2, 1, 0}, nil} {
			ref, err := NewGroupAgg(NewScan(rel), groupCols, aggs)
			if err != nil {
				t.Fatal(err)
			}
			want := collectRows(t, ref)
			// Under a budget the generations price their groups by key
			// partition on every key type and width; the rows stay the
			// unbudgeted ones.
			for _, limit := range diffBudgets {
				op, err := NewBatchGroupAgg(src(), groupCols, aggs, workers)
				if err != nil {
					t.Fatal(err)
				}
				op.SetBudget(diffBudget(limit))
				requireIdenticalRows(t, want, collectRows(t, RowsOf(op)))
			}
		}
	})
}

// TestDiffGroupAggNaNKeys: Key() renders every NaN alike, so they form
// one group — beside distinct groups for -0.0 and +0.0.
func TestDiffGroupAggNaNKeys(t *testing.T) {
	rel := NewRelation("nan", diffSchema)
	rng := rand.New(rand.NewSource(5))
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) | 1)
	for _, f := range []float64{math.NaN(), 0, nan2, math.Copysign(0, -1), math.NaN(), 0} {
		rel.MustAppend(diffRow(rng, 1, f, "x"))
	}
	aggs := []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 3, Name: "si"}}
	ref, _ := NewGroupAgg(NewScan(rel), []int{1}, aggs)
	op, _ := NewBatchGroupAgg(cutBatches(rel, 2), []int{1}, aggs, 2)
	want, got := collectRows(t, ref), collectRows(t, RowsOf(op))
	if len(want) != 3 {
		t.Fatalf("row engine found %d groups, want 3", len(want))
	}
	requireIdenticalRows(t, want, got)
}

func TestDiffHashJoin(t *testing.T) {
	rels := diffRelations()
	builds := []*Relation{rels["adversarial"], rels["duplicates"], rels["all-equal"], rels["empty"]}
	forEachShape(t, func(t *testing.T, probe *Relation, src func() BatchOp, workers int) {
		for _, build := range builds {
			// Same-typed keys of each type, then an Int build key against
			// a Float and a String probe column: Key() encodes the type,
			// so those match nothing on either engine.
			for _, cols := range [][2]int{{0, 0}, {1, 1}, {2, 2}, {0, 1}, {0, 2}, {1, 3}} {
				ref, err := NewHashJoin(NewScan(build), NewScan(probe), cols[0], cols[1])
				if err != nil {
					t.Fatal(err)
				}
				op, err := NewBatchHashJoin(cutBatches(build, 5), src(), cols[0], cols[1], workers)
				if err != nil {
					t.Fatal(err)
				}
				want := collectRows(t, ref)
				if cols[0] != cols[1] && len(want) != 0 {
					t.Fatalf("cols %v: mixed-type join matched %d rows on the row engine", cols, len(want))
				}
				requireIdenticalRows(t, want, collectRows(t, RowsOf(NewExchange(op, workers))))
			}
		}
	})
}

var diffSortKeys = [][]SortKey{
	{{Col: 0}}, {{Col: 0, Desc: true}}, {{Col: 1}}, {{Col: 1, Desc: true}}, {{Col: 2}}, {{Col: 2, Desc: true}},
	{{Col: 2}, {Col: 1, Desc: true}, {Col: 0}},
	{{Col: 1, Desc: true}, {Col: 0, Desc: true}},
	{{Col: 0}, {Col: 2, Desc: true}},
	nil,
}

func TestDiffSort(t *testing.T) {
	forEachShape(t, func(t *testing.T, rel *Relation, src func() BatchOp, workers int) {
		for _, keys := range diffSortKeys {
			ref, err := NewSort(NewScan(rel), keys)
			if err != nil {
				t.Fatal(err)
			}
			want := collectRows(t, ref)
			for _, limit := range diffBudgets {
				op, err := NewBatchSort(src(), keys, workers)
				if err != nil {
					t.Fatal(err)
				}
				op.SetBudget(diffBudget(limit))
				requireIdenticalRows(t, want, collectRows(t, RowsOf(op)))
			}
		}
	})
}

func TestDiffTopK(t *testing.T) {
	forEachShape(t, func(t *testing.T, rel *Relation, src func() BatchOp, workers int) {
		for _, keys := range diffSortKeys {
			for _, k := range []int{0, 1, 5, rel.Len(), rel.Len() + 9} {
				srt, err := NewSort(NewScan(rel), keys)
				if err != nil {
					t.Fatal(err)
				}
				want := collectRows(t, NewLimit(srt, k))
				for _, limit := range diffBudgets {
					op, err := NewBatchTopK(src(), keys, k, workers)
					if err != nil {
						t.Fatal(err)
					}
					op.SetBudget(diffBudget(limit))
					requireIdenticalRows(t, want, collectRows(t, RowsOf(op)))
				}
			}
		}
	})
}

// TestDiffTopKUnsorted: the below-the-gather form keeps exactly the rows
// the top-k keeps and emits them in arrival order. Every row carries its
// arrival position in a trailing column, so the oracle is the row
// engine's sort-and-limit re-sorted by that column.
func TestDiffTopKUnsorted(t *testing.T) {
	forEachShape(t, func(t *testing.T, rel *Relation, _ func() BatchOp, workers int) {
		tagged := NewRelation(rel.Name, append(append(Schema{}, rel.Schema...), Column{Name: "pos", Type: Int}))
		for i, r := range rel.Rows {
			tagged.MustAppend(append(append(Row{}, r...), IntV(int64(i))))
		}
		pos := []SortKey{{Col: len(rel.Schema)}}
		for _, keys := range diffSortKeys {
			for _, k := range []int{0, 1, 5, rel.Len(), rel.Len() + 9} {
				srt, err := NewSort(NewScan(tagged), keys)
				if err != nil {
					t.Fatal(err)
				}
				kept, err := Collect(NewLimit(srt, k), "kept")
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewSort(NewScan(kept), pos)
				if err != nil {
					t.Fatal(err)
				}
				want := collectRows(t, ref)
				for _, limit := range diffBudgets {
					op, err := NewBatchTopKUnsorted(cutBatches(tagged, 7), keys, k, workers)
					if err != nil {
						t.Fatal(err)
					}
					op.SetBudget(diffBudget(limit))
					requireIdenticalRows(t, want, collectRows(t, RowsOf(op)))
				}
			}
		}
	})
}

// TestSplitGroupsMatchesKeyReference: the key partition a spilling
// generation prices a group under (keyPartition) and the bucket a grace
// join puts a Float or String key in (graceHash) are FNV-1a over the
// bytes of each key cell's Value.Key() — the aggregate's followed by a
// NUL per cell — so every group and every join key lands where the
// boxed hash put it.
func TestSplitGroupsMatchesKeyReference(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) | 1)
	rel := NewRelation("keys", diffSchema)
	rng := rand.New(rand.NewSource(3))
	floats := append([]float64{math.NaN(), nan2}, advFloats...)
	for i := 0; i < 400; i++ {
		rel.MustAppend(diffRow(rng, advInts[rng.Intn(len(advInts))]+int64(rng.Intn(3)), floats[rng.Intn(len(floats))], advStrs[rng.Intn(len(advStrs))]))
	}
	for _, groupCols := range [][]int{{0}, {1}, {2}, {0, 2}, {2, 1}, {2, 1, 0}} {
		p := NewPartialAgg(groupCols, []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}})
		for _, b := range cutBatches(rel, 64).batches {
			if err := p.ObserveBatch(b, -1); err != nil {
				t.Fatal(err)
			}
		}
		for g := 0; g < p.Groups(); g++ {
			h := fnv.New64a()
			for _, key := range p.keys() {
				h.Write(append([]byte(key.Value(g).Key()), 0))
			}
			if got, want := keyPartition(p.keys(), g), int(h.Sum64()%graceFanout); got != want {
				t.Fatalf("group cols %v group %d: partition %d, the Key() hash puts it in %d", groupCols, g, got, want)
			}
		}
	}
	strs := rel.Columnar()[2]
	plain := plainOf(cells(&strs)...)
	for _, col := range []*Vector{&rel.Columnar()[1], &strs, &plain} {
		for r := range col.Len() {
			h := fnv.New64a()
			h.Write([]byte(col.Value(r).Key()))
			if got := graceHash(col, r); got != h.Sum64() {
				t.Fatalf("%v key, row %d (%v): grace hash %x, the Key() hash %x", col.T, r, col.Value(r), got, h.Sum64())
			}
		}
	}
}

// TestOrderKeysPreserveCompare: each key encoder maps Compare's order
// onto unsigned order — strictly, except that values Compare ties
// (-0.0 and +0.0) must encode equal.
func TestOrderKeysPreserveCompare(t *testing.T) {
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -(1 << 53) - 1, -(1 << 53), -2, -1, 0, 1, 2, 1 << 53, 1<<53 + 1, math.MaxInt64 - 1, math.MaxInt64}
	floats := []float64{math.Inf(-1), -math.MaxFloat64, -1.5, -1, -5e-324, math.Copysign(0, -1), 0, 5e-324, 1, 1.5, math.MaxFloat64, math.Inf(1)}
	check := func(name string, n int, val func(int) Value, key func(int) uint64) {
		t.Helper()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				c, err := Compare(val(i), val(j))
				if err != nil {
					t.Fatal(err)
				}
				got := 0
				if key(i) < key(j) {
					got = -1
				} else if key(i) > key(j) {
					got = 1
				}
				if got != c {
					t.Errorf("%s: %v vs %v: Compare %d, encoded order %d", name, val(i), val(j), c, got)
				}
				if desc := ^key(i) > ^key(j); desc != (c < 0) {
					t.Errorf("%s descending: %v vs %v: complement order disagrees with Compare %d", name, val(i), val(j), c)
				}
			}
		}
	}
	if !sort.SliceIsSorted(ints, func(i, j int) bool { return ints[i] < ints[j] }) || !sort.Float64sAreSorted(floats) {
		t.Fatal("test values must be listed in order")
	}
	check("int", len(ints), func(i int) Value { return IntV(ints[i]) }, func(i int) uint64 { return kernels.OrderKeyInt64(ints[i]) })
	check("float", len(floats), func(i int) Value { return FloatV(floats[i]) }, func(i int) uint64 { return kernels.OrderKeyFloat64(floats[i]) })
}

// TestCompareIntExact: two ints compare on their exact bits, not through
// float64 — the row oracle and a radix sort on the encoded ints agree by
// construction.
func TestCompareIntExact(t *testing.T) {
	a, b := IntV(1<<53), IntV(1<<53+1)
	if c, err := Compare(a, b); err != nil || c != -1 {
		t.Fatalf("Compare(2^53, 2^53+1) = %d, %v; want -1", c, err)
	}
	if c, _ := Compare(b, a); c != 1 {
		t.Fatalf("Compare(2^53+1, 2^53) = %d; want 1", c)
	}
	if Equal(a, b) {
		t.Fatal("Equal(2^53, 2^53+1) = true")
	}
	if c, _ := Compare(IntV(math.MinInt64), IntV(math.MaxInt64)); c != -1 {
		t.Fatalf("Compare(MinInt64, MaxInt64) = %d; want -1", c)
	}
	// Mixed Int/Float keeps the float path.
	if c, _ := Compare(IntV(1<<53+1), FloatV(1<<53)); c != 0 {
		t.Fatalf("Compare(int 2^53+1, float 2^53) = %d; want 0 (float path)", c)
	}
}

// The direct-key cases cross the key table's layout boundary inside the
// operators. directKeyGroupRel's Int key runs dense and ascending (each
// key twice) until, three quarters in, a far outlier and negative keys
// arrive: the partial holding that stretch flips from direct to hashed
// mid-stream, and at two workers MergeAll folds the hashed partial's
// groups into the direct one's.
func directKeyGroupRel() *Relation {
	rng := rand.New(rand.NewSource(17))
	rel := NewRelation("direct-keys", diffSchema)
	const n = 4000
	for i := 0; i < n; i++ {
		k := int64(i / 2)
		switch {
		case i == 3*n/4:
			k = 1 << 40
		case i > 3*n/4 && i%5 == 0:
			k = -int64(i % 97)
		}
		rel.MustAppend(diffRow(rng, k, float64(k), "s"))
	}
	return rel
}

func TestDiffDirectKeyGroupAgg(t *testing.T) {
	rel := directKeyGroupRel()
	// The case must cross the boundary: direct before the outlier's
	// batch, hashed after it.
	p := NewPartialAgg([]int{0}, []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}})
	var direct, hashed bool
	for _, b := range cutBatches(rel, 64).batches {
		if err := p.ObserveBatch(b, -1); err != nil {
			t.Fatal(err)
		}
		direct = direct || p.index.ints.keys == nil
		hashed = direct && p.index.ints.keys != nil
	}
	if !hashed {
		t.Fatalf("the key table never went from direct to hashed (direct seen: %v)", direct)
	}
	aggs := []AggSpec{
		{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 3, Name: "si"}, {Fn: SumAgg, Col: 4, Name: "sf"},
		{Fn: MinAgg, Col: 1, Name: "mf"}, {Fn: MaxAgg, Col: 3, Name: "xi"},
	}
	ref, err := NewGroupAgg(NewScan(rel), []int{0}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	want := collectRows(t, ref)
	for _, workers := range []int{1, 2} {
		for _, per := range []int{64, 1024} {
			op, err := NewBatchGroupAgg(cutBatches(rel, per), []int{0}, aggs, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalRows(t, want, collectRows(t, RowsOf(op)))
		}
	}
}

// TestDiffDirectKeyHashJoin: build sides whose dense Int keys repeat
// (row chains) beside one key past the dense run — near enough that the
// index stays direct with a gap, or far enough that it is hashed — and a
// Float key with NaN and ±0; each probed by a column holding matches,
// gaps, values past either end of the window and negatives. The build
// goes in through the join's build stream and whole through
// NewHashBuildOf (one span known up front), the table a moved build side
// becomes.
func TestDiffDirectKeyHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) | 1)
	build := func(name string, extra int64) *Relation {
		rel := NewRelation(name, diffSchema)
		for i := 0; i < 400; i++ {
			rel.MustAppend(diffRow(rng, int64(i%200), float64(i%100)/2, "b"))
		}
		for _, f := range []float64{math.NaN(), math.Copysign(0, -1), 0, nan2} {
			rel.MustAppend(diffRow(rng, extra, f, "b"))
		}
		return rel
	}
	builds := []*Relation{build("near-extra", 700), build("far-extra", 1<<40)}
	probe := NewRelation("probe", diffSchema)
	ints := []int64{0, 7, 199, 200, 450, 699, 700, 701, 5000, 1 << 40, math.MaxInt64, -1, -200, math.MinInt64}
	floats := []float64{math.NaN(), nan2, 0, math.Copysign(0, -1), 0.5, 3, 49.5, 50, -0.5, math.Inf(1)}
	for i := 0; i < 300; i++ {
		ki := ints[rng.Intn(len(ints))]
		if i%3 == 0 {
			ki = int64(rng.Intn(260))
		}
		probe.MustAppend(diffRow(rng, ki, floats[rng.Intn(len(floats))], "p"))
	}
	for _, b := range builds {
		for _, col := range []int{0, 1} {
			ref, err := NewHashJoin(NewScan(b), NewScan(probe), col, col)
			if err != nil {
				t.Fatal(err)
			}
			want := collectRows(t, ref)
			if len(want) == 0 {
				t.Fatalf("%s col %d: the oracle matched nothing", b.Name, col)
			}
			for _, workers := range []int{1, 2} {
				op, err := NewBatchHashJoin(cutBatches(b, 5), cutBatches(probe, 7), col, col, workers)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalRows(t, want, collectRows(t, RowsOf(NewExchange(op, workers))))
				pre, err := NewHashBuildOf(b.Schema, col, b.Columnar(), b.Len())
				if err != nil {
					t.Fatal(err)
				}
				op, err = NewBatchHashJoinPrebuilt(pre, cutBatches(probe, 7), col, workers)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalRows(t, want, collectRows(t, RowsOf(NewExchange(op, workers))))
			}
		}
	}
}

// The coded cases run the operators over dictionary-coded String columns
// against the row oracle over the same cells. withStrings swaps a
// relation's String key column (2) for v, holding the same cells coded,
// plain, or coded over a dictionary another relation shares.
func withStrings(rel *Relation, v Vector) *Relation {
	cols := slices.Clone(rel.Columnar())
	cols[2] = v
	return NewColumnRelation(rel.Name, rel.Schema, cols, rel.Len())
}

func strCol(rel *Relation) []string { return cells(&rel.Columnar()[2]) }

// mixedStringBatches interleaves batches of three forms of the same kind
// of rows — coded over one dictionary, coded over another, plain — so a
// group-by's key table and MIN/MAX state switch dictionaries, and turn
// plain, mid-stream; rel holds the same rows in stream order, for the
// oracle.
func mixedStringBatches(rng *rand.Rand) (src func() BatchOp, rel *Relation) {
	forms := []func(...string) Vector{codedOf, codedOf, plainOf}
	rel = NewRelation("mixed", diffSchema)
	var batches []*Batch
	for i := 0; i < 30; i++ {
		part := NewRelation("part", diffSchema)
		for r := 0; r < 1+rng.Intn(9); r++ {
			row := diffRow(rng, int64(rng.Intn(4)), float64(rng.Intn(3)), advStrs[rng.Intn(len(advStrs))])
			part.MustAppend(row)
			rel.MustAppend(row)
		}
		cols := slices.Clone(part.Columnar())
		cols[2] = forms[i%3](strCol(part)...)
		b := BatchOf(diffSchema, cols, part.Len())
		b.Seq = int64(i)
		batches = append(batches, b)
	}
	return func() BatchOp { return &batchSource{schema: diffSchema, batches: batches} }, rel
}

// TestDiffCodedGroupAgg: grouping on a coded String key, alone and beside
// an Int key, with MIN and MAX over the coded column — on one coded
// column, and on a stream mixing two dictionaries and plain batches.
func TestDiffCodedGroupAgg(t *testing.T) {
	aggs := []AggSpec{
		{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 3, Name: "si"},
		{Fn: MinAgg, Col: 2, Name: "ms"}, {Fn: MaxAgg, Col: 2, Name: "xs"}, {Fn: MaxAgg, Col: 0, Name: "xi"},
	}
	rels := diffRelations()
	dup := rels["duplicates"]
	adv := withStrings(rels["adversarial"], codedOf(strCol(rels["adversarial"])...))
	if dup.Columnar()[2].Dict == nil || adv.Columnar()[2].Dict == nil {
		t.Fatal("the String columns were not coded")
	}
	mixed, mixedRel := mixedStringBatches(rand.New(rand.NewSource(41)))
	inputs := []struct {
		rel *Relation
		src func() BatchOp
	}{
		{dup, func() BatchOp { return cutBatches(dup, 7) }},
		{adv, func() BatchOp { return cutBatches(adv, 16) }},
		{mixedRel, mixed},
	}
	for _, in := range inputs {
		for _, groupCols := range [][]int{{2}, {2, 0}, {0}} {
			ref, err := NewGroupAgg(NewScan(in.rel), groupCols, aggs)
			if err != nil {
				t.Fatal(err)
			}
			want := collectRows(t, ref)
			for _, workers := range []int{1, 2} {
				for _, limit := range diffBudgets {
					op, err := NewBatchGroupAgg(in.src(), groupCols, aggs, workers)
					if err != nil {
						t.Fatal(err)
					}
					op.SetBudget(diffBudget(limit))
					requireIdenticalRows(t, want, collectRows(t, RowsOf(op)))
				}
			}
		}
	}
}

// TestDiffCodedHashJoin: a String-keyed join with a coded build and a
// plain probe, with both sides coded over different dictionaries, and
// with both coded over one shared dictionary — built from the build stream
// and adopted whole by NewHashBuildOf.
func TestDiffCodedHashJoin(t *testing.T) {
	rels := diffRelations()
	b, p := rels["adversarial"], rels["duplicates"]
	bs, ps := strCol(b), strCol(p)
	shared := codedOf(append(slices.Clone(bs), ps...)...)
	for _, c := range []struct {
		name         string
		build, probe *Relation
	}{
		{"coded build, plain probe", withStrings(b, codedOf(bs...)), withStrings(p, plainOf(ps...))},
		{"plain build, coded probe", withStrings(b, plainOf(bs...)), withStrings(p, codedOf(ps...))},
		{"two dictionaries", withStrings(b, codedOf(bs...)), withStrings(p, codedOf(ps...))},
		{"one shared dictionary", withStrings(b, shared.Slice(0, len(bs))), withStrings(p, shared.Slice(len(bs), len(bs)+len(ps)))},
	} {
		ref, err := NewHashJoin(NewScan(c.build), NewScan(c.probe), 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := collectRows(t, ref)
		if len(want) == 0 {
			t.Fatalf("%s: the oracle matched nothing", c.name)
		}
		for _, workers := range []int{1, 2} {
			for _, limit := range diffBudgets {
				op, err := NewBatchHashJoin(cutBatches(c.build, 5), cutBatches(c.probe, 7), 2, 2, workers)
				if err != nil {
					t.Fatal(err)
				}
				op.SetBudget(diffBudget(limit))
				requireIdenticalRows(t, want, collectRows(t, RowsOf(NewExchange(op, workers))))
			}
			pre, err := NewHashBuildOf(c.build.Schema, 2, c.build.Columnar(), c.build.Len())
			if err != nil {
				t.Fatal(err)
			}
			op, err := NewBatchHashJoinPrebuilt(pre, cutBatches(c.probe, 7), 2, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalRows(t, want, collectRows(t, RowsOf(NewExchange(op, workers))))
		}
	}
}

// TestDiffCodedSort: ORDER BY a coded String column, alone and as a
// tie-break, as a full sort (in memory and external) and as a top-k.
func TestDiffCodedSort(t *testing.T) {
	rels := diffRelations()
	mixed, mixedRel := mixedStringBatches(rand.New(rand.NewSource(43)))
	dup := rels["duplicates"]
	for _, in := range []struct {
		rel *Relation
		src func() BatchOp
	}{
		{dup, func() BatchOp { return cutBatches(dup, 7) }},
		{mixedRel, mixed},
	} {
		for _, keys := range [][]SortKey{{{Col: 2}}, {{Col: 2, Desc: true}, {Col: 0}}, {{Col: 0}, {Col: 2, Desc: true}}} {
			for _, k := range []int{-1, 3, 40} {
				srt, err := NewSort(NewScan(in.rel), keys)
				if err != nil {
					t.Fatal(err)
				}
				var ref Op = srt
				if k >= 0 {
					ref = NewLimit(srt, k)
				}
				want := collectRows(t, ref)
				for _, workers := range []int{1, 2} {
					for _, limit := range diffBudgets {
						var op *BatchSort
						if k >= 0 {
							op, err = NewBatchTopK(in.src(), keys, k, workers)
						} else {
							op, err = NewBatchSort(in.src(), keys, workers)
						}
						if err != nil {
							t.Fatal(err)
						}
						op.SetBudget(diffBudget(limit))
						requireIdenticalRows(t, want, collectRows(t, RowsOf(op)))
					}
				}
			}
		}
	}
}
