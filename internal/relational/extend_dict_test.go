package relational

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

var strSchema = Schema{{Name: "s", Type: String}}

// strRel returns a one-column String relation grown from empty by one
// batch of strs in the form batch gives them.
func strRel(t *testing.T, batch func(...string) Vector, strs ...string) *Relation {
	t.Helper()
	return extendStrs(t, NewRelation("t", strSchema), batch, strs...)
}

// extendStrs extends r by strs in the form batch gives them.
func extendStrs(t *testing.T, r *Relation, batch func(...string) Vector, strs ...string) *Relation {
	t.Helper()
	out, err := r.ExtendColumns([]Vector{batch(strs...)}, len(strs))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireCoded fails unless r's String column holds want and is coded or
// plain as coded says.
func requireCoded(t *testing.T, what string, r *Relation, want []string, coded bool) {
	t.Helper()
	requireColumn(t, what, r, 0, want, coded)
}

// requireColumn is requireCoded for r's String column c.
func requireColumn(t *testing.T, what string, r *Relation, c int, want []string, coded bool) {
	t.Helper()
	v := &r.Columnar()[c]
	requireCells(t, what, v, want)
	if r.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", what, r.Len(), len(want))
	}
	if (v.Dict != nil) != coded {
		t.Fatalf("%s: coded=%v, want %v", what, v.Dict != nil, coded)
	}
}

// requirePrefix fails unless Dict a's entries lead Dict b's.
func requirePrefix(t *testing.T, a, b *Dict) {
	t.Helper()
	if a.Len() > b.Len() || !slices.Equal(a.strs, b.strs[:a.Len()]) {
		t.Fatalf("dictionary %q is not a prefix of %q", a.strs, b.strs)
	}
}

// Exercise possible failure modes: a column batch the schema refuses —
// too few or too many columns, a column of the wrong type, a column
// holding other than n cells, a negative n — fails with nothing written,
// and the relation's next Extend still appends in place.
func TestExtendColumnsRefusesMisshapenBatches(t *testing.T) {
	schema := Schema{{Name: "i", Type: Int}, {Name: "s", Type: String}}
	base, err := NewRelation("t", schema).Extend([]Row{{IntV(1), StringV("a")}, {IntV(2), StringV("a")}})
	if err != nil {
		t.Fatal(err)
	}
	ints := func(xs ...int64) Vector { return Vector{T: Int, Ints: xs} }
	cases := []struct {
		name string
		cols []Vector
		n    int
	}{
		{"too few columns", []Vector{ints(3)}, 1},
		{"too many columns", []Vector{ints(3), plainOf("b"), ints(4)}, 1},
		{"a column of the wrong type", []Vector{ints(3), ints(4)}, 1},
		{"a short column", []Vector{ints(3, 4), codedOf("b")}, 2},
		{"n past every column", []Vector{ints(3), plainOf("b")}, 2},
		{"negative n", []Vector{ints(), plainOf()}, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := base.ExtendColumns(c.cols, c.n); err == nil {
				t.Fatal("ExtendColumns accepted the batch")
			}
			requireColumn(t, "base", base, 1, []string{"a", "a"}, true)
		})
	}
	next, err := base.ExtendColumns([]Vector{ints(3), plainOf("b")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !base.grown.Load() || next.enc[1] == nil {
		t.Fatal("the first good Extend after refused batches did not append in place")
	}
}

// TestExtendKeepsDictCoded: a coded String column stays coded as it grows
// and every snapshot keeps reading its own cells. Failure modes first.
func TestExtendKeepsDictCoded(t *testing.T) {
	t.Run("an empty batch leaves the column as it was", func(t *testing.T) {
		base := strRel(t, codedOf, "a", "b", "a", "a")
		foreign := codedOf("zz")
		for _, empty := range []Vector{codedOf(), plainOf(), foreign.Slice(0, 0)} {
			next, err := base.ExtendColumns([]Vector{empty}, 0)
			if err != nil {
				t.Fatal(err)
			}
			requireCoded(t, "after an empty batch", next, []string{"a", "b", "a", "a"}, true)
			if next.Columnar()[0].Dict != base.Columnar()[0].Dict {
				t.Fatal("an empty batch replaced the dictionary")
			}
		}
	})
	t.Run("the cardinality bound crossed turns the column plain, once", func(t *testing.T) {
		// 4 rows over 2 entries: coded. 4 more, all new: d = 6 of n = 8,
		// and 16·6 + 4·8 = 128 is not below 16·8 = 128.
		base := strRel(t, codedOf, "a", "b", "a", "b")
		next := extendStrs(t, base, plainOf, "c", "d", "e", "f")
		want := []string{"a", "b", "a", "b", "c", "d", "e", "f"}
		requireCoded(t, "past the bound", next, want, false)
		requireCoded(t, "the snapshot before", base, want[:4], true)
		// Repeats would satisfy the bound again; the column stays plain.
		for i := range 3 {
			next = extendStrs(t, next, codedOf, "a", "a", "a", "a", "a", "a", "a", "a")
			want = append(want, "a", "a", "a", "a", "a", "a", "a", "a")
			requireCoded(t, fmt.Sprint("repeats ", i), next, want, false)
		}
	})
	t.Run("an empty table adopts its first batch's form", func(t *testing.T) {
		requireCoded(t, "coded first batch", strRel(t, codedOf, "a", "a", "b", "a"), []string{"a", "a", "b", "a"}, true)
		plain := strRel(t, plainOf, "a", "a", "b", "a")
		requireCoded(t, "plain first batch", plain, []string{"a", "a", "b", "a"}, false)
		plain = extendStrs(t, plain, codedOf, "a", "a", "a", "a")
		requireCoded(t, "a plain column stays plain", plain, []string{"a", "a", "b", "a", "a", "a", "a", "a"}, false)
		// A coded first batch whose dictionary breaks the bound comes in plain.
		requireCoded(t, "oversized dictionary", strRel(t, codedOf, "a", "b"), []string{"a", "b"}, false)
	})
	t.Run("two concurrent Extends of one snapshot", func(t *testing.T) {
		base := strRel(t, codedOf, "a", "b", "a", "b", "a", "b")
		batches := [][]string{{"a", "x", "x", "a"}, {"y", "b", "y", "y"}}
		outs := make([]*Relation, len(batches))
		var wg sync.WaitGroup
		for i, batch := range batches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := base.ExtendColumns([]Vector{codedOf(batch...)}, len(batch))
				if err != nil {
					t.Error(err)
				}
				outs[i] = out
			}()
		}
		wg.Wait()
		for i, out := range outs {
			requireCoded(t, fmt.Sprint("extend ", i), out, append([]string{"a", "b", "a", "b", "a", "b"}, batches[i]...), true)
			requirePrefix(t, base.Columnar()[0].Dict, out.Columnar()[0].Dict)
		}
		requireCoded(t, "the shared snapshot", base, []string{"a", "b", "a", "b", "a", "b"}, true)
	})
	t.Run("an Extend of an older snapshot copies", func(t *testing.T) {
		base := strRel(t, codedOf, "a", "b", "a", "b")
		first := extendStrs(t, base, plainOf, "c", "a", "c", "c")
		second := extendStrs(t, base, plainOf, "d", "d", "b", "d")
		third := extendStrs(t, first, codedOf, "e", "c", "e", "e")
		requireCoded(t, "first", first, []string{"a", "b", "a", "b", "c", "a", "c", "c"}, true)
		requireCoded(t, "second", second, []string{"a", "b", "a", "b", "d", "d", "b", "d"}, true)
		requireCoded(t, "third", third, []string{"a", "b", "a", "b", "c", "a", "c", "c", "e", "c", "e", "e"}, true)
		if second.Columnar()[0].Dict.strs[2] != "d" || first.Columnar()[0].Dict.strs[2] != "c" {
			t.Fatal("the two Extends of one snapshot share an encoder")
		}
		if !first.grown.Load() || second.enc[0] == first.enc[0] {
			t.Fatal("the copying Extend took the first one's encoder")
		}
	})
	t.Run("a new key in mid-stream, older snapshots still decode", func(t *testing.T) {
		// Batches in every form: coded over another dictionary, plain, a
		// window of the table itself (coded over an older Dict).
		snaps := []*Relation{strRel(t, codedOf, "k0", "k1", "k0", "k1")}
		wants := [][]string{{"k0", "k1", "k0", "k1"}}
		for i := 2; i < 40; i++ {
			batch := []string{"k0", fmt.Sprint("k", i), "k1", "k0", fmt.Sprint("k", i/2), "k0", "k1", "k0"}
			prev := snaps[len(snaps)-1]
			var next *Relation
			switch i % 3 {
			case 0:
				next = extendStrs(t, prev, codedOf, batch...)
			case 1:
				next = extendStrs(t, prev, plainOf, batch...)
			default:
				own := snaps[len(snaps)/2].Columnar()[0].Slice(0, 4)
				batch = cells(&own)
				var err error
				if next, err = prev.ExtendColumns([]Vector{own}, len(batch)); err != nil {
					t.Fatal(err)
				}
			}
			snaps = append(snaps, next)
			wants = append(wants, append(slices.Clone(wants[len(wants)-1]), batch...))
		}
		last := snaps[len(snaps)-1].Columnar()[0].Dict
		for i, s := range snaps {
			requireCoded(t, fmt.Sprint("snapshot ", i), s, wants[i], true)
			requirePrefix(t, s.Columnar()[0].Dict, last)
		}
	})
	t.Run("the encoder passes down the chain of first Extends", func(t *testing.T) {
		r := strRel(t, codedOf, "a", "b", "a", "b")
		var enc *dictEncoder
		for i := range 50 {
			r = extendStrs(t, r, plainOf, "a", fmt.Sprint("n", i), "b", "a", "b", "a", "b", "a")
			switch {
			case r.enc[0] == nil:
				t.Fatalf("extend %d: no encoder handed down", i)
			case enc != nil && r.enc[0] != enc:
				t.Fatalf("extend %d: the encoder was rebuilt (an O(d) copy)", i)
			}
			enc = r.enc[0]
		}
		if d := r.Columnar()[0].Dict.Len(); d != 52 {
			t.Fatalf("dictionary holds %d entries, want 52", d)
		}
	})
}
