package relational

// Dict is the dictionary of a coded String vector: distinct strings, each
// named by its int32 code (its position). A Dict is immutable and shared:
// its entries are fixed when StringVector builds it and its slice is
// clipped, so no append can write through it. Every vector gathered,
// sliced or concatenated from coded vectors over one Dict is coded over
// that same Dict — which is what lets a keyIndex translate a code once and
// answer every later row carrying it with an array read.
type Dict struct {
	strs []string
}

// Len returns the number of entries.
func (d *Dict) Len() int { return len(d.strs) }

// StringVector returns strs as a String vector, taking ownership of the
// slice. It is the one place a column gets dictionary-coded: the vector is
// coded — one int32 per value over a Dict of the distinct values, in
// first-seen order — exactly when that takes fewer bytes than the plain
// string headers, 16·d + 4·n < 16·n for d distinct values among n, that is
// d < 3n/4. Counting stops, and the column stays plain, as soon as d
// reaches that bound.
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
