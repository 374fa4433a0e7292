package relational

import "slices"

// Dict is the dictionary of a coded String vector: distinct strings, each
// named by its int32 code (its position). A Dict is immutable and shared:
// its entries are fixed when it is built and its slice is clipped, so no
// append can write through it. A growing table column does not append to
// its Dict; it replaces it (Relation.ExtendColumns) by a Dict whose leading
// entries are the old one's — the prefix rule — so codes into the old Dict
// mean the same strings in the new one. Every vector gathered, sliced or
// concatenated from coded vectors over one Dict is coded over that same
// Dict — which is what lets a keyIndex translate a code once and answer
// every later row carrying it with an array read.
type Dict struct {
	strs []string
}

// Len returns the number of entries.
func (d *Dict) Len() int { return len(d.strs) }

// StringVector returns strs as a String vector, taking ownership of the
// slice. It is the coding decision for a column born whole: the vector is
// coded — one int32 per value over a Dict of the distinct values, in
// first-seen order — exactly when that takes fewer bytes than the plain
// string headers, 16·d + 4·n < 16·n for d distinct values among n, that is
// d < 3n/4. Counting stops, and the column stays plain, as soon as d
// reaches that bound. StringBuilder makes the same decision cell by cell,
// and a table column keeps applying the rule as it grows
// (Relation.ExtendColumns).
func StringVector(strs []string) Vector {
	n := len(strs)
	if n == 0 {
		return Vector{T: String, Strs: strs}
	}
	limit := (3*n + 3) / 4 // ⌈3n/4⌉: coded iff d < limit
	codes := make([]int32, n)
	ids := map[string]int32{}
	var entries []string
	for i, s := range strs {
		c, ok := ids[s]
		if !ok {
			if len(entries)+1 >= limit {
				return Vector{T: String, Strs: strs}
			}
			c = int32(len(entries))
			ids[s] = c
			entries = append(entries, s)
		}
		codes[i] = c
	}
	return Vector{T: String, Dict: &Dict{strs: entries[:len(entries):len(entries)]}, Codes: codes}
}

// Str returns String element i, decoded from the dictionary when the
// vector is coded. With Value it is the one way to read a String cell.
func (v *Vector) Str(i int) string {
	if v.Dict != nil {
		return v.Dict.strs[v.Codes[i]]
	}
	return v.Strs[i]
}

// plain turns a coded String vector into a plain one, copying its cells
// out into fresh storage (the codes and dictionary it shared stay as they
// were).
func (v *Vector) plain() {
	if v.Dict == nil {
		return
	}
	strs := make([]string, len(v.Codes), cap(v.Codes))
	for i, c := range v.Codes {
		strs[i] = v.Dict.strs[c]
	}
	v.Strs, v.Dict, v.Codes = strs, nil, nil
}

// codedFrom readies the String vector v to take cells of src and reports
// whether they append as codes: src is coded and v is coded over the same
// Dict, or v is empty and adopts src's. Otherwise v is (or turns) plain and
// src's cells append decoded — so a mix of dictionaries, or of coded and
// plain cells, comes out plain.
func (v *Vector) codedFrom(src *Vector) bool {
	if src.Dict != nil {
		if v.Dict == src.Dict {
			return true
		}
		if v.Len() == 0 {
			if v.Dict == nil {
				v.Codes = make([]int32, 0, cap(v.Strs))
			}
			v.Dict, v.Codes, v.Strs = src.Dict, v.Codes[:0], nil
			return true
		}
	}
	v.plain()
	return false
}

// dictEncoder is the encode side of a growing column's dictionaries: ids
// maps each entry to its code and strs holds the entries with room to
// append. Every Dict built from it is a clipped prefix of strs, so an
// append never writes where a Dict can see. One encoder serves one chain
// of first Extends (see Relation.ExtendColumns); newDictEncoder starts one
// over an existing Dict, whose clipped slice the first append copies away
// from.
type dictEncoder struct {
	ids  map[string]int32
	strs []string
}

func newDictEncoder(d *Dict) *dictEncoder {
	e := &dictEncoder{ids: make(map[string]int32, d.Len()), strs: d.strs}
	for i, s := range d.strs {
		e.ids[s] = int32(i)
	}
	return e
}

// code returns s's code, adding s as the next entry when it is new.
func (e *dictEncoder) code(s string) int32 {
	if c, ok := e.ids[s]; ok {
		return c
	}
	return e.add(s)
}

// add enters s, which the encoder does not hold, and returns its code.
func (e *dictEncoder) add(s string) int32 {
	if e.ids == nil {
		e.ids = map[string]int32{}
	}
	c := int32(len(e.strs))
	e.ids[s] = c
	e.strs = append(e.strs, s)
	return c
}

// codedIsSmaller is StringVector's byte rule: n cells over d distinct
// strings are coded when the codes and dictionary take fewer bytes than
// the plain string headers.
func codedIsSmaller(d, n int) bool { return 16*d+4*n < 16*n }

// StringBuilder builds a String vector cell by cell and codes it exactly
// as StringVector would code the same cells: over a Dict of the distinct
// values in first-seen order when codedIsSmaller, plain otherwise. The
// zero value is ready to use.
type StringBuilder struct {
	enc   dictEncoder
	codes []int32
}

// Add appends the cell s.
func (b *StringBuilder) Add(s string) { b.codes = append(b.codes, b.enc.code(s)) }

// AddBytes appends the cell spelled by s, copying the bytes into a string
// only the first time they occur.
func (b *StringBuilder) AddBytes(s []byte) {
	c, ok := b.enc.ids[string(s)]
	if !ok {
		c = b.enc.add(string(s))
	}
	b.codes = append(b.codes, c)
}

// Grow makes room for n more cells.
func (b *StringBuilder) Grow(n int) { b.codes = slices.Grow(b.codes, n) }

// Vector returns the cells added so far; the builder must not be used
// afterwards.
func (b *StringBuilder) Vector() Vector {
	d, n := len(b.enc.strs), len(b.codes)
	if !codedIsSmaller(d, n) {
		strs := make([]string, n)
		for i, c := range b.codes {
			strs[i] = b.enc.strs[c]
		}
		return Vector{T: String, Strs: strs}
	}
	return Vector{T: String, Dict: &Dict{strs: b.enc.strs[:d:d]}, Codes: b.codes}
}

// extendStrings appends the String cells of src to v, a growing table
// column, by the rules of Relation.ExtendColumns; enc is the encoder
// behind v's Dict, or nil when none was built yet. It returns the encoder
// to hand down with v: nil once v is plain.
func (v *Vector) extendStrings(enc *dictEncoder, src *Vector) *dictEncoder {
	n := src.Len()
	switch {
	case v.Dict == nil:
		v.appendStrs(src, 0, n)
		return nil
	case src.Dict == v.Dict:
		v.Codes = append(v.Codes, src.Codes...)
	default:
		if enc == nil {
			enc = newDictEncoder(v.Dict)
		}
		if src.Dict != nil && src.Dict.Len() <= n {
			// Encode each of src's entries once, on its first use.
			xlat := make([]int32, src.Dict.Len())
			for i := range xlat {
				xlat[i] = -1
			}
			for _, c := range src.Codes {
				if xlat[c] < 0 {
					xlat[c] = enc.code(src.Dict.strs[c])
				}
				v.Codes = append(v.Codes, xlat[c])
			}
		} else {
			for i := range n {
				v.Codes = append(v.Codes, enc.code(src.Str(i)))
			}
		}
		if d := len(enc.strs); d > v.Dict.Len() {
			v.Dict = &Dict{strs: enc.strs[:d:d]}
		}
	}
	if !codedIsSmaller(v.Dict.Len(), len(v.Codes)) {
		v.plain()
		return nil
	}
	return enc
}

// appendStrs appends src's String elements [lo, hi) to the plain vector v.
func (v *Vector) appendStrs(src *Vector, lo, hi int) {
	if src.Dict == nil {
		v.Strs = append(v.Strs, src.Strs[lo:hi]...)
		return
	}
	for _, c := range src.Codes[lo:hi] {
		v.Strs = append(v.Strs, src.Dict.strs[c])
	}
}

// sharedDict returns the Dict column c of every non-empty source is coded
// over, or nil when they differ, one is plain, or there is none.
func sharedDict(sources [][]Vector, c int) *Dict {
	var d *Dict
	for _, cols := range sources {
		v := &cols[c]
		switch {
		case v.Len() == 0:
		case v.Dict == nil || (d != nil && v.Dict != d):
			return nil
		default:
			d = v.Dict
		}
	}
	return d
}

// newColumn returns an empty vector of type t with room for n values, to
// be filled from column c of the sources: coded over their Dict when they
// share one, plain otherwise.
func newColumn(t Type, n int, sources [][]Vector, c int) Vector {
	if t == String {
		if d := sharedDict(sources, c); d != nil {
			return Vector{T: String, Dict: d, Codes: make([]int32, 0, n)}
		}
	}
	return NewVector(t, n)
}

// NewColumns returns one empty vector per schema column, with room for n
// values, to be filled by appending cells of the sources (each a set of
// vectors laid out like schema, or wider): a String column whose
// non-empty sources share one Dict comes out coded over it, every other
// column plain.
func NewColumns(schema Schema, n int, sources ...[]Vector) []Vector {
	cols := make([]Vector, len(schema))
	for c, sc := range schema {
		cols[c] = newColumn(sc.Type, n, sources, c)
	}
	return cols
}
