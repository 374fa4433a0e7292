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
	next  []int32
	tail  []int32 // tail[first row of a chain] is the chain's last row
}

// add enters rows [len(ix.next), key.Len()) of the build key column, in
// order. An Int key's range is known up front, so the index takes its
// direct layout from the start when the range fits.
func (ix *joinIndex) add(key *Vector) {
	ix.keyT = key.T
	kc := []Vector{*key}
	switch from := len(ix.next); {
	case key.T == Int && key.Len() > from:
		lo, hi := kernels.MinMaxInt64(key.Ints[from:])
		ix.index.ints.reserveSpan(key.Len(), lo, hi)
	case key.T == Float:
		ix.index.ints.reserve(key.Len())
	}
	ix.next = slices.Grow(ix.next, key.Len()-len(ix.next))
	ix.tail = slices.Grow(ix.tail, key.Len()-len(ix.tail))
	for r := len(ix.next); r < key.Len(); r++ {
		first, fresh := ix.index.getOrPut(kc, r, int32(r))
		ix.next = append(ix.next, 0)
		ix.tail = append(ix.tail, int32(r))
		if !fresh {
			ix.next[ix.tail[first]] = int32(r) + 1
			ix.tail[first] = int32(r)
		}
	}
}

// match appends to bsel/psel the (build row, probe row) pairs joining
// the rows sel selects of probe column pc (every row when sel is nil):
// probe rows in order, each one's matches in build serial order — the
// selection vectors the join output is built by. A coded probe column
// resolves through tr, the probing stream's own code translation, so
// concurrent probes share the index read-only.
func (ix *joinIndex) match(pc *Vector, sel, bsel, psel []int32, tr *codeRefs) ([]int32, []int32) {
	if pc.T != ix.keyT || len(ix.next) == 0 {
		return bsel, psel
	}
	n := pc.Len()
	if sel != nil {
		n = len(sel)
	}
	for i := 0; i < n; i++ {
		r := i
		if sel != nil {
			r = int(sel[i])
		}
		for m := ix.index.get(pc, r, tr); m >= 0; m = ix.next[m] - 1 {
			bsel, psel = append(bsel, m), append(psel, int32(r))
		}
	}
	return bsel, psel
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
