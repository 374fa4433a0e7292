package relational

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/kernels"
)

// intTableCase drives one intTable through batches of keys, each adding
// to the keys the earlier ones left. With reserve, each batch is
// announced first, the way joinIndex.add announces a build key column.
type intTableCase struct {
	name    string
	batches [][]int64
	reserve bool
	// room, when set, is reserved (with no span) before each batch, the
	// way MergeAll sizes its index of later partials' groups.
	room int
	// maxLayouts, when set, bounds how many times the table may re-lay
	// itself out over the whole case.
	maxLayouts int
	// direct requires the table to end in its direct layout.
	direct bool
}

// minHashedBytes is what the smallest hashed table for n keys takes: 12
// bytes a slot (int64 key, int32 ref), a power of two of at least 64
// slots at load <= 1/2.
func minHashedBytes(n int) int {
	slots := 64
	for slots < 2*n {
		slots *= 2
	}
	return 12 * slots
}

func run(lo, n int64, step int64) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = lo + int64(i)*step
	}
	return keys
}

func cat(parts ...[]int64) []int64 {
	var out []int64
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func floatBits(fs ...float64) []int64 {
	keys := make([]int64, len(fs))
	for i, f := range fs {
		keys[i] = floatKeyBits(f)
	}
	return keys
}

// Exercise possible failure modes: spans that wrap or overflow int64,
// windows pinned against either end of the range, an outlier landing in
// a direct table, later batches taking keys far from the first one's
// window, and Float keys whose bits are neighbours or special values.
var intTableFailureCases = []intTableCase{
	{name: "span wraps: MinInt64 and MaxInt64", batches: [][]int64{{math.MinInt64, math.MaxInt64, math.MinInt64, 0}}},
	{name: "span overflows int64: MinInt64 and 0", batches: [][]int64{{math.MinInt64, 0, -1, 1, math.MinInt64 + 1}}},
	{name: "window against MaxInt64, then MinInt64", batches: [][]int64{cat(run(math.MaxInt64, 40, -1), []int64{math.MinInt64, math.MinInt64 + 1, 0})}},
	{name: "window against MinInt64, then MaxInt64", batches: [][]int64{cat(run(math.MinInt64, 40, 1), []int64{math.MaxInt64, math.MaxInt64 - 1, -1})}},
	{name: "dense run, far outlier, dense again", batches: [][]int64{cat(run(1, 3000, 1), []int64{1 << 40}, run(3001, 3000, 1), run(1, 6000, 1))}},
	{name: "dense run, near outlier past the limit", batches: [][]int64{cat(run(0, 100, 1), []int64{100 + 3*1024}, run(100, 200, 1))}},
	{name: "negative dense keys", batches: [][]int64{cat(run(-1, 5000, -1), run(-5000, 5000, 1), []int64{0, 1})}},
	{name: "later batches far outside the first window", batches: [][]int64{run(0, 2000, 1), run(1_000_000, 500, 1), run(-1_000_000, 500, -3), {math.MaxInt64, math.MinInt64}, run(10, 50, 1)}},
	{name: "hashed table, then dense keys", batches: [][]int64{run(0, 500, 1<<33), run(0, 4000, 1), run(5, 10, 1)}},
	{name: "float keys: NaN, ±0, neighbouring bits", batches: [][]int64{
		floatBits(math.NaN(), 0, math.Copysign(0, -1), math.Float64frombits(math.Float64bits(math.NaN())|1), math.NaN(), 1, math.Nextafter(1, 2), math.Nextafter(1, 0), math.Inf(1), math.Inf(-1), 0),
		cat(run(math.MaxInt64-5, 6, 1), run(floatKeyBits(1), 300, 1), floatBits(math.NaN(), math.Copysign(0, -1))),
	}},
	{name: "announced span, then keys beyond it", reserve: true, batches: [][]int64{cat(run(50, 100, 1), run(-20, 10, 1)), cat(run(0, 300, 2), []int64{1 << 50, -(1 << 50)})}},
	{name: "announced span wrapping int64", reserve: true, batches: [][]int64{{math.MaxInt64, math.MinInt64, 3}}},
	{name: "keys widening a range on alternate sides, room reserved", room: 40_000, batches: [][]int64{
		cat([]int64{10_623, 44_612, 10_514, 44_751, 5_459, 49_238, 1_709, 49_946, 1}, shuffled(run(2, 20_000, 2), 11)),
	}, maxLayouts: 6, direct: true},
	{name: "2^20 strictly descending keys", batches: [][]int64{run(1<<40, 1<<20, -1)}, maxLayouts: 2*20 + 8, direct: true},
}

// The common shapes: surrogate keys in order, a dense domain in random
// order (hashed until the keys held span little enough), sparse keys.
var intTableCases = []intTableCase{
	{name: "ascending dense", batches: [][]int64{run(1, 100_000, 1)}, maxLayouts: 2*17 + 8, direct: true},
	{name: "dense domain, shuffled", batches: [][]int64{shuffled(run(1, 50_000, 1), 7)}, direct: true},
	{name: "sparse keys", batches: [][]int64{run(1<<40, 20_000, 2654435761)}},
	{name: "announced dense build column", reserve: true, batches: [][]int64{cat(run(1, 1000, 1), run(1, 1000, 1)), run(2000, 1000, -1)}},
}

func shuffled(keys []int64, seed uint64) []int64 {
	x := seed
	for i := len(keys) - 1; i > 0; i-- {
		x = mix64(x + 0x9E3779B97F4A7C15)
		j := int(x % uint64(i+1))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

// TestIntTableMatchesMap holds the table to a Go map step by step: the
// ref and fresh flag of every getOrPut, -1 from get for absent keys
// (every key's neighbours, both ends of the range), every ref after each
// batch, and the memory rule — a direct layout never takes more bytes
// than the smallest hashed table for the most keys held or announced.
func TestIntTableMatchesMap(t *testing.T) {
	for _, c := range append(intTableFailureCases, intTableCases...) {
		t.Run(c.name, func(t *testing.T) { checkIntTable(t, c) })
	}
}

func checkIntTable(t *testing.T, c intTableCase) {
	var tb intTable
	peak, layouts := 0, 0
	shape := func() [2]int { return [2]int{len(tb.refs), len(tb.keys)} }
	last := shape()
	ref := map[int64]int32{}
	for b, keys := range c.batches {
		if c.room > 0 {
			tb.reserve(c.room)
			peak = max(peak, c.room)
		}
		if c.reserve && len(keys) > 0 {
			lo, hi := kernels.MinMaxInt64(keys)
			tb.reserveSpan(len(keys), lo, hi)
			peak = max(peak, len(keys))
		}
		absent := func(k int64) {
			if _, ok := ref[k]; !ok {
				if got := tb.get(k); got != -1 {
					t.Fatalf("batch %d: get(%d) of an absent key = %d", b, k, got)
				}
			}
		}
		for i, k := range keys {
			next := int32(len(ref))
			got, fresh := tb.getOrPut(k, next)
			if want, ok := ref[k]; ok {
				if got != want || fresh {
					t.Fatalf("batch %d step %d: getOrPut(%d) = %d, %v; want %d, false", b, i, k, got, fresh, want)
				}
			} else {
				if got != next || !fresh {
					t.Fatalf("batch %d step %d: getOrPut(%d) of a new key = %d, %v; want %d, true", b, i, k, got, fresh, next)
				}
				ref[k] = next
			}
			peak = max(peak, len(ref))
			if tb.n != len(ref) {
				t.Fatalf("batch %d step %d: table holds %d keys, want %d", b, i, tb.n, len(ref))
			}
			if tb.keys == nil && 4*len(tb.refs) > minHashedBytes(peak) {
				t.Fatalf("batch %d step %d: direct window of %d slots (%d B) exceeds the hashed table for %d keys (%d B)",
					b, i, len(tb.refs), 4*len(tb.refs), peak, minHashedBytes(peak))
			}
			if s := shape(); s != last {
				layouts, last = layouts+1, s
				if c.maxLayouts > 0 && layouts > c.maxLayouts {
					t.Fatalf("batch %d step %d: %d re-layouts, want at most %d", b, i, layouts, c.maxLayouts)
				}
			}
			if k > math.MinInt64 {
				absent(k - 1)
			}
			if k < math.MaxInt64 {
				absent(k + 1)
			}
		}
		for k, want := range ref {
			if got := tb.get(k); got != want {
				t.Fatalf("batch %d: get(%d) = %d, want %d", b, k, got, want)
			}
		}
		for _, k := range []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64} {
			absent(k)
		}
	}
	if c.direct && tb.keys != nil {
		t.Fatalf("ended hashed (%d slots), want direct", len(tb.refs))
	}
}

// FuzzIntTable decodes the input as a sequence of operations on one
// table and a map: each op byte picks where the key comes from (a small
// step from the last key, 8 raw bytes, or the last key again) and what
// to do with it (put, get, start a fresh table, or announce a span from
// it).
func FuzzIntTable(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		var tb intTable
		ref := map[int64]int32{}
		var k int64
		for len(in) > 0 {
			op := in[0]
			in = in[1:]
			switch op & 3 {
			case 0, 1: // step: dense runs
				if len(in) > 0 {
					k += int64(int8(in[0]))
					in = in[1:]
				}
			case 2: // raw key
				var raw [8]byte
				in = in[copy(raw[:], in):]
				k = int64(binary.LittleEndian.Uint64(raw[:]))
			}
			switch (op >> 2) & 7 {
			case 0, 1, 2, 3:
				next := int32(len(ref))
				got, fresh := tb.getOrPut(k, next)
				if want, ok := ref[k]; ok {
					if got != want || fresh {
						t.Fatalf("getOrPut(%d) = %d, %v; want %d, false", k, got, fresh, want)
					}
				} else if got != next || !fresh {
					t.Fatalf("getOrPut(%d) of a new key = %d, %v; want %d, true", k, got, fresh, next)
				} else {
					ref[k] = next
				}
			case 4, 5:
				want, ok := ref[k]
				if !ok {
					want = -1
				}
				if got := tb.get(k); got != want {
					t.Fatalf("get(%d) = %d, want %d", k, got, want)
				}
			case 6:
				tb = intTable{}
				clear(ref)
			case 7:
				hi := k + int64(op>>5)*1000
				if hi < k {
					hi = math.MaxInt64
				}
				tb.reserveSpan(len(ref)+int(op>>5)+1, k, hi)
			}
		}
		if tb.n != len(ref) {
			t.Fatalf("table holds %d keys, map %d", tb.n, len(ref))
		}
		for key, want := range ref {
			if got := tb.get(key); got != want {
				t.Fatalf("get(%d) = %d, want %d", key, got, want)
			}
		}
	})
}

// TestDirectKeyLayouts: a join index over a dense key column (ids
// 1..50000, shuffled) takes a direct window of exactly the column's span
// at once, and a partial grouping on the same ids ends direct, in less
// memory than the hashed table it replaces.
func TestDirectKeyLayouts(t *testing.T) {
	var ix joinIndex
	key := Vector{T: Int, Ints: shuffled(run(1, 50_000, 1), 3)}
	ix.add(&key)
	tb := &ix.index.ints
	if tb.keys != nil || len(tb.refs) != 50_000 {
		t.Fatalf("join index over keys 1..50000: direct=%v, %d slots; want a direct window of exactly the span", tb.keys == nil, len(tb.refs))
	}
	p := NewPartialAgg([]int{0}, []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}})
	fact := Vector{T: Int, Ints: shuffled(cat(run(1, 50_000, 1), run(1, 50_000, 1)), 5)}
	for lo := 0; lo < fact.Len(); lo += 1024 {
		hi := min(lo+1024, fact.Len())
		if err := p.ObserveBatch(BatchOf(Schema{{Name: "k", Type: Int}}, []Vector{fact.Slice(lo, hi)}, hi-lo), -1); err != nil {
			t.Fatal(err)
		}
	}
	if pt := &p.index.ints; pt.keys != nil || 4*len(pt.refs) > minHashedBytes(pt.n) {
		t.Fatalf("partial over 50000 dense keys: direct=%v, %d slots", pt.keys == nil, len(pt.refs))
	}
}

// stringKeySources are the key columns FuzzStringKeyIndex draws from: two
// coded dictionaries of different sizes whose values overlap (one string,
// two codes), and a plain column over the same values. Every value of
// each dictionary occurs in its column, so codes run to the dictionary's
// end.
func stringKeySources() [3]Vector {
	vals := []string{"", "a", "b", "ab", "a\x00", "\x00", "zz"}
	for i := range 33 {
		vals = append(vals, fmt.Sprint("k", i))
	}
	var big, small, plain []string
	for i := range 2 * len(vals) {
		big = append(big, vals[(i*7)%len(vals)])
	}
	for i := range 12 {
		small = append(small, vals[(len(vals)-1-i%5)%len(vals)], vals[i%3])
	}
	for i := range 3 * len(vals) {
		plain = append(plain, vals[(i*11+3)%len(vals)])
	}
	return [3]Vector{codedOf(big...), codedOf(small...), plainOf(plain...)}
}

// FuzzStringKeyIndex decodes the input as operations on one keyIndex and
// a map[string]int32: each op byte picks a key column (either coded
// dictionary or the plain column) and what to do, and the next byte the
// row. It puts (getOrPut), finds through the index's own code
// translation, gets through a translation the caller owns (as a join's
// probe stream does), or starts a fresh index — in any interleaving, so
// the translations switch dictionaries and outlive puts.
func FuzzStringKeyIndex(f *testing.F) {
	f.Add([]byte{})
	srcs := stringKeySources()
	f.Fuzz(func(t *testing.T, in []byte) {
		var x keyIndex
		var probe codeRefs
		ref := map[string]int32{}
		for len(in) > 0 {
			op := in[0]
			row := 0
			if len(in) > 1 {
				row = int(in[1])
			}
			in = in[min(2, len(in)):]
			src := &srcs[int(op&3)%len(srcs)]
			row %= src.Len()
			kc, k := []Vector{*src}, src.Str(row)
			want, ok := ref[k]
			if !ok {
				want = -1
			}
			switch (op >> 2) & 7 {
			case 0, 1, 2, 3:
				next := int32(len(ref))
				got, fresh := x.getOrPut(kc, row, next)
				if ok && (got != want || fresh) {
					t.Fatalf("getOrPut(%q) = %d, %v; want %d, false", k, got, fresh, want)
				}
				if !ok && (got != next || !fresh) {
					t.Fatalf("getOrPut(%q) of a new key = %d, %v; want %d, true", k, got, fresh, next)
				}
				ref[k] = got
			case 4, 5:
				if got := x.find(kc, row); got != want {
					t.Fatalf("find(%q) = %d, want %d", k, got, want)
				}
			case 6:
				if got := x.get(src, row, &probe); got != want {
					t.Fatalf("get(%q) through the caller's translation = %d, want %d", k, got, want)
				}
			case 7:
				x = keyIndex{}
				probe = codeRefs{}
				clear(ref)
			}
		}
		for i := range srcs {
			for r := range srcs[i].Len() {
				want, ok := ref[srcs[i].Str(r)]
				if !ok {
					want = -1
				}
				if got := x.find([]Vector{srcs[i]}, r); got != want {
					t.Fatalf("source %d row %d (%q): find = %d, want %d", i, r, srcs[i].Str(r), got, want)
				}
			}
		}
	})
}

// TestKeyIndexCodedMatchesPlain: one index fed a coded key column gives
// every row the ref a second index fed the same cells plain gives it, and
// after the first pass every coded lookup is served by the translation.
func TestKeyIndexCodedMatchesPlain(t *testing.T) {
	srcs := stringKeySources()
	coded := []Vector{srcs[0]}
	plain := []Vector{plainOf(cells(&srcs[0])...)}
	var xc, xp keyIndex
	for pass := range 2 {
		for r := range coded[0].Len() {
			gc, fc := xc.getOrPut(coded, r, int32(r))
			gp, fp := xp.getOrPut(plain, r, int32(r))
			if gc != gp || fc != fp {
				t.Fatalf("pass %d row %d: coded %d, %v; plain %d, %v", pass, r, gc, fc, gp, fp)
			}
			if pass == 1 && xc.codes.refs[coded[0].Codes[r]] != gc+1 {
				t.Fatalf("row %d: code %d not translated after the first pass", r, coded[0].Codes[r])
			}
		}
	}
}
