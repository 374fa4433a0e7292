package dataflow

import (
	"math"
	"sort"
	"testing"

	"repro/internal/workload"
)

func TestMapFilterCollect(t *testing.T) {
	d := FromSlice("nums", []int{1, 2, 3, 4, 5, 6}, 3)
	doubled := Map(d, func(x int) int { return x * 2 })
	big := Filter(doubled, func(x int) bool { return x > 6 })
	out, err := Collect(big)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(out)
	want := []int{8, 10, 12}
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestNarrowOpsDoNotShuffle(t *testing.T) {
	d := FromSlice("nums", make([]int, 1000), 4)
	m := Map(d, func(x int) int { return x + 1 })
	f := Filter(m, func(x int) bool { return x > 0 })
	if _, err := Collect(f); err != nil {
		t.Fatal(err)
	}
	stages, _, shuffled := d.M.Snapshot()
	if shuffled != 0 {
		t.Fatalf("narrow pipeline shuffled %d records", shuffled)
	}
	if stages != 1 {
		t.Fatalf("narrow pipeline stages = %d, want 1", stages)
	}
}

func TestReduceByKeyCorrectAndShuffles(t *testing.T) {
	recs := workload.RecordStream(7, 5000, 32, 1.0)
	d := FromSlice("recs", recs, 8)
	keyed := KeyBy(d, func(r workload.Record) string { return r.Key })
	summed := ReduceByKey(Map(keyed, func(p Pair[string, workload.Record]) Pair[string, float64] {
		return Pair[string, float64]{Key: p.Key, Val: p.Val.Value}
	}), func(a, b float64) float64 { return a + b })
	out, err := Collect(summed)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for _, r := range recs {
		want[r.Key] += r.Value
	}
	if len(out) != len(want) {
		t.Fatalf("keys: %d vs %d", len(out), len(want))
	}
	for _, kv := range out {
		if math.Abs(kv.Val-want[kv.Key]) > 1e-6 {
			t.Fatalf("sum[%s] = %v, want %v", kv.Key, kv.Val, want[kv.Key])
		}
	}
	stages, _, shuffled := d.M.Snapshot()
	if stages < 2 {
		t.Fatalf("reduceByKey must add a stage: %d", stages)
	}
	if shuffled != 5000 {
		t.Fatalf("shuffled = %d, want all 5000 pre-aggregation records", shuffled)
	}
}

func TestEachKeyInOnePartitionAfterShuffle(t *testing.T) {
	recs := workload.RecordStream(9, 2000, 16, 0.8)
	d := FromSlice("recs", recs, 8)
	keyed := Map(KeyBy(d, func(r workload.Record) string { return r.Key }),
		func(p Pair[string, workload.Record]) Pair[string, float64] {
			return Pair[string, float64]{Key: p.Key, Val: 1}
		})
	counted := ReduceByKey(keyed, func(a, b float64) float64 { return a + b })
	out, err := Collect(counted)
	if err != nil {
		t.Fatal(err)
	}
	// If a key appeared in two partitions, Collect would return it twice.
	seen := map[string]bool{}
	for _, kv := range out {
		if seen[kv.Key] {
			t.Fatalf("key %s appears in multiple partitions", kv.Key)
		}
		seen[kv.Key] = true
	}
}

func TestGroupByKey(t *testing.T) {
	d := FromSlice("xs", []Pair[string, int]{
		{"a", 1}, {"b", 2}, {"a", 3}, {"b", 4}, {"a", 5},
	}, 2)
	grouped := GroupByKey(d)
	out, err := Collect(grouped)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, kv := range out {
		sum := 0
		for _, v := range kv.Val {
			sum += v
		}
		got[kv.Key] = sum
	}
	if got["a"] != 9 || got["b"] != 6 {
		t.Fatalf("groups = %v", got)
	}
}

func TestJoinInner(t *testing.T) {
	orders := FromSlice("orders", []Pair[int, float64]{
		{1, 10.0}, {2, 20.0}, {1, 30.0}, {3, 5.0},
	}, 2)
	names := FromSlice("names", []Pair[int, string]{
		{1, "alice"}, {2, "bob"},
	}, 2)
	joined := Join(orders, names)
	out, err := Collect(joined)
	if err != nil {
		t.Fatal(err)
	}
	// Customer 3 drops; customer 1 matches twice.
	if len(out) != 3 {
		t.Fatalf("join rows = %d, want 3", len(out))
	}
	total := map[string]float64{}
	for _, kv := range out {
		total[kv.Val.Right] += kv.Val.Left
	}
	if total["alice"] != 40 || total["bob"] != 20 {
		t.Fatalf("joined totals = %v", total)
	}
}

func TestWordCountPipeline(t *testing.T) {
	docs := workload.Corpus(3, 40, 60, 150)
	d := FromSlice("docs", docs, 4)
	words := FlatMap(d, func(doc workload.Doc) []Pair[string, int] {
		out := make([]Pair[string, int], len(doc.Words))
		for i, w := range doc.Words {
			out[i] = Pair[string, int]{Key: w, Val: 1}
		}
		return out
	})
	counts := ReduceByKey(words, func(a, b int) int { return a + b })
	out, err := Collect(counts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, doc := range docs {
		for _, w := range doc.Words {
			want[w]++
		}
	}
	if len(out) != len(want) {
		t.Fatalf("distinct words %d, want %d", len(out), len(want))
	}
	for _, kv := range out {
		if want[kv.Key] != kv.Val {
			t.Fatalf("count[%s] = %d, want %d", kv.Key, kv.Val, want[kv.Key])
		}
	}
}

func TestCount(t *testing.T) {
	d := FromSlice("xs", make([]int, 57), 5)
	n, err := Count(d)
	if err != nil {
		t.Fatal(err)
	}
	if n != 57 {
		t.Fatalf("count = %d", n)
	}
}

func TestDeterministicCollectOrder(t *testing.T) {
	build := func() []Pair[string, int] {
		recs := workload.RecordStream(5, 500, 8, 1.0)
		d := FromSlice("r", recs, 4)
		keyed := Map(KeyBy(d, func(r workload.Record) string { return r.Key }),
			func(p Pair[string, workload.Record]) Pair[string, int] {
				return Pair[string, int]{Key: p.Key, Val: 1}
			})
		out, err := Collect(ReduceByKey(keyed, func(a, b int) int { return a + b }))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
