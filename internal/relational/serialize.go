package relational

// Wire-format sizing for the distributed engine: how many bytes a value,
// row, batch or relation occupies when serialized for transfer between
// simulated hosts. The format is never materialized — the flow-level
// network simulator only needs sizes — but the accounting mirrors a
// conventional columnar wire layout: 8 bytes per numeric, length-prefixed
// strings, and a small per-row framing overhead.

// rowOverheadBytes is the per-row framing cost (row length + validity).
const rowOverheadBytes = 2

// EncodedBytes returns the serialized size of one value.
func (v Value) EncodedBytes() float64 {
	if v.T == String {
		return float64(4 + len(v.S))
	}
	return 8
}

// EncodedBytes returns the serialized size of one row.
func (r Row) EncodedBytes() float64 {
	total := float64(rowOverheadBytes)
	for _, v := range r {
		total += v.EncodedBytes()
	}
	return total
}

// EncodedBytes returns the serialized size of the batch's rows (the
// selected ones of a selected batch, counted where they lie).
func (b *Batch) EncodedBytes() float64 {
	z := NewRowSizer(b.Cols)
	if b.Sel == nil {
		return float64(z.RangeBytes(0, b.n))
	}
	total := 0
	for _, r := range b.Sel {
		total += z.Bytes(int(r))
	}
	return float64(total)
}

// EncodedBytes returns the serialized size of the whole relation, from
// its vectors (so it reads, and freezes, a row-built relation's image).
func (r *Relation) EncodedBytes() float64 {
	return float64(NewRowSizer(r.Columnar()).RangeBytes(0, r.Len()))
}

// RowSizer prices rows held as columns without boxing them: Bytes(r) is
// Row.EncodedBytes of row r, as an integer. It is the one sizing rule for
// columns: batches, relations, partials, build tables, sort runs and the
// top-k heap all count bytes through it. The numeric cells, string length
// prefixes and row framing fold into one constant; only string payloads
// are read per row, decoded from a coded column's dictionary.
type RowSizer struct {
	fixed int
	strs  []Vector
}

// NewRowSizer returns the sizer of rows spread across cols.
func NewRowSizer(cols []Vector) RowSizer {
	z := RowSizer{fixed: rowOverheadBytes}
	for c := range cols {
		if cols[c].T == String {
			z.fixed += 4
			z.strs = append(z.strs, cols[c])
		} else {
			z.fixed += 8
		}
	}
	return z
}

// Bytes returns the serialized size of row r.
func (z RowSizer) Bytes(r int) int {
	b := z.fixed
	for i := range z.strs {
		b += len(z.strs[i].Str(r))
	}
	return b
}

// RangeBytes returns the serialized size of rows [lo, hi).
func (z RowSizer) RangeBytes(lo, hi int) int {
	b := z.fixed * (hi - lo)
	for i := range z.strs {
		v := &z.strs[i]
		for r := lo; r < hi; r++ {
			b += len(v.Str(r))
		}
	}
	return b
}
