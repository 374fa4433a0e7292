package relational

import (
	"fmt"
	"slices"
	"testing"
)

// codedOf returns strs dictionary-coded whatever the byte rule says, the
// dictionary holding the distinct values in first-seen order.
func codedOf(strs ...string) Vector {
	ids := map[string]int32{}
	d := &Dict{}
	codes := make([]int32, len(strs))
	for i, s := range strs {
		c, ok := ids[s]
		if !ok {
			c = int32(len(d.strs))
			ids[s] = c
			d.strs = append(d.strs, s)
		}
		codes[i] = c
	}
	d.strs = slices.Clip(d.strs)
	return Vector{T: String, Dict: d, Codes: codes}
}

// plainOf returns strs as a plain String vector over a copy.
func plainOf(strs ...string) Vector {
	return Vector{T: String, Strs: slices.Clone(strs)}
}

// cells decodes v through Str.
func cells(v *Vector) []string {
	out := make([]string, v.Len())
	for i := range out {
		out[i] = v.Str(i)
	}
	return out
}

// twins returns strs coded and plain.
func twins(strs []string) [2]Vector { return [2]Vector{codedOf(strs...), plainOf(strs...)} }

// requireCells fails unless v holds want, read through Len, Str and Value.
func requireCells(t *testing.T, what string, v *Vector, want []string) {
	t.Helper()
	if v.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", what, v.Len(), len(want))
	}
	for i, s := range want {
		if v.Str(i) != s || v.Value(i) != StringV(s) {
			t.Fatalf("%s: cell %d is %q (Value %v), want %q", what, i, v.Str(i), v.Value(i), s)
		}
	}
}

// dictVectorCase is one input of the coded-vs-plain differential: its
// strings and a selection to gather by.
type dictVectorCase struct {
	name string
	strs []string
	sel  []int32
}

// Exercise possible failure modes: the empty string as a value (the zero
// string must not read as "no cell"), a one-entry dictionary, an empty
// selection, codes at the dictionary's end, and NUL bytes inside values.
var dictVectorFailureCases = []dictVectorCase{
	{name: "empty string as a value", strs: []string{"", "a", "", "", "b", ""}, sel: []int32{0, 2, 1, 5}},
	{name: "one-entry dictionary", strs: []string{"k", "k", "k", "k"}, sel: []int32{3, 0, 0}},
	{name: "empty selection", strs: []string{"x", "y", "x", "y"}, sel: []int32{}},
	{name: "codes at the dictionary's end", strs: []string{"a", "b", "c", "d", "d", "d", "c"}, sel: []int32{3, 6, 4, 5}},
	{name: "NUL bytes and prefixes", strs: []string{"a\x00", "a", "\x00", "a\x00", "a", ""}, sel: []int32{0, 1, 2, 3}},
}

var dictVectorCases = []dictVectorCase{
	{name: "few distinct, repeated", strs: []string{"EU", "NA", "EU", "APAC", "NA", "EU", "EU", "APAC"}, sel: []int32{7, 6, 0, 3, 3}},
	{name: "one cell", strs: []string{"solo"}, sel: []int32{0, 0}},
}

// TestDictVectorMatchesPlain builds each input twice, coded and plain,
// and requires every vector operation to agree on the two: reads, slices,
// gathers, appends of every kind, cell compares and every byte count.
func TestDictVectorMatchesPlain(t *testing.T) {
	for _, c := range append(dictVectorFailureCases, dictVectorCases...) {
		t.Run(c.name, func(t *testing.T) {
			tw := twins(c.strs)
			want := c.strs
			for f := range tw {
				v := &tw[f]
				form := [2]string{"coded", "plain"}[f]
				requireCells(t, form, v, want)
				for lo := 0; lo <= len(want); lo++ {
					for hi := lo; hi <= len(want); hi++ {
						s := v.Slice(lo, hi)
						requireCells(t, fmt.Sprintf("%s slice [%d,%d)", form, lo, hi), &s, want[lo:hi])
						if s.Dict != v.Dict {
							t.Fatalf("%s slice changed dictionary", form)
						}
					}
				}
				var sel []string
				for _, j := range c.sel {
					sel = append(sel, want[j])
				}
				g := GatherVector(v, c.sel)
				requireCells(t, form+" gather", &g, sel)
				if g.Dict != v.Dict {
					t.Fatalf("%s gather changed dictionary", form)
				}
				// Appends into an empty vector, one of each form, and one
				// holding the other twin's cells.
				for di, dst := range []Vector{{T: String}, NewVector(String, 3), tw[0].clone(), tw[1].clone()} {
					prefix := cells(&dst)
					r, ga, ce := dst.clone(), dst.clone(), dst.clone()
					r.AppendRange(v, 0, len(want))
					requireCells(t, fmt.Sprintf("%s AppendRange into dst %d", form, di), &r, append(slices.Clone(prefix), want...))
					ga.AppendGather(v, c.sel)
					requireCells(t, fmt.Sprintf("%s AppendGather into dst %d", form, di), &ga, append(slices.Clone(prefix), sel...))
					for _, j := range c.sel {
						ce.appendCell(v, int(j))
					}
					requireCells(t, fmt.Sprintf("%s appendCell into dst %d", form, di), &ce, append(slices.Clone(prefix), sel...))
					if (r.Dict != nil) != (v.Dict != nil && (len(prefix) == 0 || dst.Dict == v.Dict)) {
						t.Fatalf("%s AppendRange into dst %d: coded=%v", form, di, r.Dict != nil)
					}
				}
				// setCell over every (i, j), into either twin.
				for i := range want {
					for j := range want {
						for _, dst := range tw {
							w := dst.clone()
							w.setCell(i, v, j)
							exp := slices.Clone(want)
							exp[i] = want[j]
							requireCells(t, fmt.Sprintf("%s setCell(%d, %d)", form, i, j), &w, exp)
						}
					}
				}
				// cmpCell against both twins.
				for i := range want {
					for j := range want {
						for _, o := range tw {
							exp := 0
							if want[i] < want[j] {
								exp = -1
							} else if want[i] > want[j] {
								exp = 1
							}
							if got := cmpCell(v, i, &o, j); got != exp {
								t.Fatalf("%s cmpCell(%q, %q) = %d, want %d", form, want[i], want[j], got, exp)
							}
						}
					}
				}
			}
			// Byte counts: RowSizer, beside an Int column, must read the
			// decoded strings.
			coded, plain := []Vector{{T: Int, Ints: make([]int64, len(want))}, tw[0]}, []Vector{{T: Int, Ints: make([]int64, len(want))}, tw[1]}
			zc, zp := NewRowSizer(coded), NewRowSizer(plain)
			for lo := 0; lo <= len(want); lo++ {
				if lo < len(want) {
					if a, b := zc.Bytes(lo), zp.Bytes(lo); a != b || a != rowOverheadBytes+8+4+len(want[lo]) {
						t.Fatalf("RowSizer.Bytes(%d): coded %d, plain %d", lo, a, b)
					}
				}
				for hi := lo; hi <= len(want); hi++ {
					if a, b := zc.RangeBytes(lo, hi), zp.RangeBytes(lo, hi); a != b {
						t.Fatalf("RowSizer.RangeBytes(%d, %d): coded %d, plain %d", lo, hi, a, b)
					}
				}
			}
		})
	}
}

// TestDictConcatOfTwoDictionariesIsPlain: cells from two dictionaries (or
// coded beside plain) come out plain and correct, whatever builds them —
// appends or NewColumns — while one shared dictionary stays coded.
func TestDictConcatOfTwoDictionariesIsPlain(t *testing.T) {
	a, b := codedOf("x", "y", "x"), codedOf("y", "z")
	p := plainOf("q", "x")
	for _, c := range []struct {
		name  string
		parts []Vector
		coded bool
	}{
		{"two dictionaries", []Vector{a, b}, false},
		{"coded then plain", []Vector{a, p}, false},
		{"plain then coded", []Vector{p, a}, false},
		{"one dictionary twice", []Vector{a, a.Slice(1, 3)}, true},
		{"empty plain beside one dictionary", []Vector{{T: String}, a, plainOf()}, true},
	} {
		var want []string
		sources := make([][]Vector, len(c.parts))
		for i := range c.parts {
			want = append(want, cells(&c.parts[i])...)
			sources[i] = c.parts[i : i+1]
		}
		cols := NewColumns(Schema{{Name: "s", Type: String}}, len(want), sources...)
		appended := Vector{T: String}
		for i := range c.parts {
			cols[0].AppendRange(&c.parts[i], 0, c.parts[i].Len())
			appended.AppendRange(&c.parts[i], 0, c.parts[i].Len())
		}
		batches := make([]*Batch, len(c.parts))
		for i := range c.parts {
			batches[i] = BatchOf(Schema{{Name: "s", Type: String}}, c.parts[i:i+1], c.parts[i].Len())
		}
		concat, _ := concatCols(Schema{{Name: "s", Type: String}}, batches)
		for _, got := range []Vector{cols[0], appended, concat[0]} {
			requireCells(t, c.name, &got, want)
			if (got.Dict != nil) != c.coded {
				t.Fatalf("%s: coded=%v, want %v", c.name, got.Dict != nil, c.coded)
			}
		}
	}
	// The dictionaries themselves are untouched.
	requireCells(t, "a", &a, []string{"x", "y", "x"})
	requireCells(t, "b", &b, []string{"y", "z"})
	if a.Dict.Len() != 2 || b.Dict.Len() != 2 {
		t.Fatalf("a dictionary grew: %d, %d entries", a.Dict.Len(), b.Dict.Len())
	}
}

// TestDictSliceAppendLeavesParent: appending to a window of a coded
// column — same dictionary, another one, plain cells, a boxed Value —
// never writes the parent's codes or its dictionary.
func TestDictSliceAppendLeavesParent(t *testing.T) {
	parent := codedOf("a", "b", "c", "a", "b", "c")
	want := cells(&parent)
	codes := slices.Clone(parent.Codes)
	other := codedOf("zz")
	for _, app := range []func(w *Vector){
		func(w *Vector) { w.AppendRange(&parent, 2, 3) },
		func(w *Vector) { w.appendCell(&parent, 5) },
		func(w *Vector) { w.AppendGather(&parent, []int32{0, 1}) },
		func(w *Vector) { w.AppendRange(&other, 0, 1) },
		func(w *Vector) { p := plainOf("new"); w.AppendRange(&p, 0, 1) },
		func(w *Vector) { w.Append(StringV("boxed")) },
		func(w *Vector) { w.setCell(0, &other, 0) },
	} {
		w := parent.Slice(1, 3)
		app(&w)
		if !slices.Equal(parent.Codes, codes) || !slices.Equal(cells(&parent), want) || parent.Dict.Len() != 3 {
			t.Fatalf("an append to a window rewrote its parent: codes %v, cells %v", parent.Codes, cells(&parent))
		}
	}
}

// TestDictStringVectorByteRule: StringVector codes a column exactly when
// dictionary headers plus codes take fewer bytes than plain headers —
// 16·d + 4·n < 16·n, i.e. d < ⌈3n/4⌉ — and the cells read back either way.
func TestDictStringVectorByteRule(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 100, 101} {
		limit := (3*n + 3) / 4
		for _, d := range []int{limit - 1, limit} {
			if d < 1 || d > n {
				continue
			}
			strs := make([]string, n)
			for i := range strs {
				strs[i] = fmt.Sprint("v", i%d)
			}
			want := slices.Clone(strs)
			v := StringVector(strs)
			requireCells(t, fmt.Sprintf("n=%d d=%d", n, d), &v, want)
			coded := 16*d+4*n < 16*n
			if (v.Dict != nil) != coded {
				t.Fatalf("n=%d d=%d: coded=%v, the byte rule says %v", n, d, v.Dict != nil, coded)
			}
			if coded && v.Dict.Len() != d {
				t.Fatalf("n=%d d=%d: dictionary of %d entries", n, d, v.Dict.Len())
			}
		}
	}
	if v := StringVector(nil); v.Dict != nil || v.Len() != 0 {
		t.Fatal("an empty column was coded")
	}
}
