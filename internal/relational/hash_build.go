package relational

import (
	"fmt"
	"slices"

	"repro/internal/kernels"
)

// joinIndex finds, for a probe key, the build rows carrying it, in build
// (serial) order: a typed keyIndex maps each distinct key to the first
// row holding it, and next chains every row to the following row with
// the same key (row+1; 0 ends the chain). Matching is Value.Key()
// equality, which encodes the type — a probe column of another type than
// the build key matches nothing.
type joinIndex struct {
	keyT  Type
	index keyIndex
	keys  int // distinct keys held
	next  []int32
	// tail[first row of a chain] is the chain's last row + 1 (0: the
	// first row itself); nil until a key repeats.
	tail []int32
}

// add enters rows [len(ix.next), key.Len()) of the build key column, in
// order. An Int key's range is known up front, so the index takes its
// direct layout from the start when the range fits, and the rows enter
// it without the keyIndex's per-row dispatch.
func (ix *joinIndex) add(key *Vector) {
	ix.keyT = key.T
	kc := []Vector{*key}
	from, n := len(ix.next), key.Len()
	switch {
	case key.T == Int && n > from:
		lo, hi := kernels.MinMaxInt64(key.Ints[from:])
		ix.index.ints.reserveSpan(n, lo, hi)
	case key.T == Float:
		ix.index.ints.reserve(n)
	}
	ix.next = slices.Grow(ix.next, n-from)[:n]
	clear(ix.next[from:])
	for r := from; r < n; r++ {
		var first int32
		var fresh bool
		if key.T == Int {
			first, fresh = ix.index.ints.getOrPut(key.Ints[r], int32(r))
		} else {
			first, fresh = ix.index.getOrPut(kc, r, int32(r))
		}
		if fresh {
			ix.keys++
			continue
		}
		if len(ix.tail) < n {
			ix.tail = append(ix.tail, make([]int32, n-len(ix.tail))...)
		}
		last := first
		if t := ix.tail[first]; t > 0 {
			last = t - 1
		}
		ix.next[last], ix.tail[first] = int32(r)+1, int32(r)+1
	}
}

// unique reports whether every key is held by one row, so a probe row
// matches at most one: no row chains to another.
func (ix *joinIndex) unique() bool { return ix.keys == len(ix.next) }

// probeBuf is one probing stream's scratch, reused batch after batch: the
// (build row, probe row) pairs of its last match, each probe row's first
// match, the rows of a batch without a selection, and the translation of
// a coded probe key's codes.
type probeBuf struct {
	bsel, psel []int32
	first      []int32
	rows       []int32 // 0, 1, 2, …
	codes      codeRefs
}

// match sets buf.bsel/psel to the (build row, probe row) pairs joining
// the rows sel selects of probe column pc (every row when sel is nil):
// probe rows in order, each one's matches in build serial order — the
// selection vectors the join output is built by. One typed loop per key
// type finds each row's first match, and one loop shared by every type
// lays the pairs out: a compaction when the build key is unique, else a
// walk of each row's chain. A coded probe column resolves through the
// stream's own code translation, so concurrent probes share the index
// read-only.
func (ix *joinIndex) match(pc *Vector, sel []int32, buf *probeBuf) {
	buf.bsel, buf.psel = buf.bsel[:0], buf.psel[:0]
	if pc.T != ix.keyT || len(ix.next) == 0 {
		return
	}
	if sel == nil {
		if len(buf.rows) < pc.Len() {
			buf.rows = kernels.AppendIota(buf.rows[:0], pc.Len())
		}
		sel = buf.rows[:pc.Len()]
	}
	first := slices.Grow(buf.first[:0], len(sel))[:len(sel)]
	buf.first = first
	switch t := &ix.index.ints; {
	case pc.T == Int:
		t.lookup(pc.Ints, sel, first)
	case pc.T == Float:
		for i, r := range sel {
			first[i] = t.get(floatKeyBits(pc.Floats[r]))
		}
	case pc.Dict != nil:
		buf.codes.on(pc.Dict)
		refs := buf.codes.refs
		for i, r := range sel {
			c := pc.Codes[r]
			if refs[c] == 0 { // unresolved, or absent: looked up again
				refs[c] = ix.index.str(pc.Dict.strs[c]) + 1
			}
			first[i] = refs[c] - 1
		}
	default:
		for i, r := range sel {
			first[i] = ix.index.str(pc.Strs[r])
		}
	}
	bsel, psel := slices.Grow(buf.bsel, len(sel)), slices.Grow(buf.psel, len(sel))
	if ix.unique() {
		bsel, psel = bsel[:len(sel)], psel[:len(sel)]
		k := 0
		for i, m := range first {
			bsel[k], psel[k] = m, sel[i]
			k += int(uint32(^m) >> 31) // 1 when m >= 0
		}
		buf.bsel, buf.psel = bsel[:k], psel[:k]
		return
	}
	for i, m := range first {
		for ; m >= 0; m = ix.next[m] - 1 {
			bsel, psel = append(bsel, m), append(psel, sel[i])
		}
	}
	buf.bsel, buf.psel = bsel, psel
}

// HashBuild is a hash-join build table: the build side as typed column
// vectors in serial order plus a joinIndex over the key column. The batch
// hash join fills one from its build stream; the distributed engine takes
// a moved build side whole, once its movement phase is charged, and
// NewHashBuildOf adopts its vectors — the broadcast's seq-merged build
// side, a shuffle destination's seq-sorted bucket, a co-placed shard's own
// rows — so per-key row lists follow the serial engine's insertion order.
//
// Append is not safe for concurrent use; once appending is done the
// table is read-only and may be shared by any number of concurrently
// probing joins (NewBatchHashJoinPrebuilt).
type HashBuild struct {
	schema Schema
	keyCol int
	cols   []Vector
	bytes  float64 // serialized size of the rows held
	ix     joinIndex
}

// NewHashBuild returns an empty build table keyed on keyCol of schema.
func NewHashBuild(schema Schema, keyCol int) (*HashBuild, error) {
	if keyCol < 0 || keyCol >= len(schema) {
		return nil, fmt.Errorf("relational: hash build key column %d out of range", keyCol)
	}
	h := &HashBuild{schema: schema, keyCol: keyCol, cols: make([]Vector, len(schema))}
	for i, c := range schema {
		h.cols[i].T = c.Type
	}
	return h, nil
}

// NewHashBuildOf returns the build table of a complete build side: rows
// [0, n) of cols, whose leading columns follow schema (trailing extras — a
// stream's #seq — are ignored), inserted in order. The table takes the
// vectors as they stand instead of copying them, so they must not change
// afterwards; the table's windows are clipped, so an append to it
// reallocates rather than writing past them.
func NewHashBuildOf(schema Schema, keyCol int, cols []Vector, n int) (*HashBuild, error) {
	h, err := NewHashBuild(schema, keyCol)
	if err != nil {
		return nil, err
	}
	for c := range h.cols {
		h.cols[c] = cols[c].Slice(0, n)
	}
	h.bytes = float64(NewRowSizer(h.cols).RangeBytes(0, n))
	h.ix.add(&h.cols[h.keyCol])
	return h, nil
}

// Append inserts rows in order, copying their cells into the table's
// vectors.
func (h *HashBuild) Append(rows []Row) {
	for _, row := range rows {
		for c := range h.cols {
			h.cols[c].Append(row[c])
		}
		h.bytes += row.EncodedBytes()
	}
	h.ix.add(&h.cols[h.keyCol])
}

// Len returns the number of rows inserted.
func (h *HashBuild) Len() int { return h.cols[h.keyCol].Len() }

// Schema returns the build-side schema.
func (h *HashBuild) Schema() Schema { return h.schema }
