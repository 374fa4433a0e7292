// Package relational is a small in-memory relational engine: typed
// schemas, relations, and two interchangeable executions of the same
// operators (scan, filter, project, hash join, group/aggregate, sort,
// top-k, limit). It is the execution substrate the SQL layer
// (internal/sql) lowers onto, standing in for the "query language" side
// of Section IV.C.1's query-languages-to-frameworks discussion.
//
// The batch engine (BatchOp) is the one queries run on: columnar Batches
// of typed Vectors flow through morsel-parallel operators, and nothing on
// its path boxes a cell per input row. Group-by (PartialAgg) gives groups
// dense ids through a typed keyIndex and keeps their states as
// struct-of-arrays vectors folded column-at-a-time; the hash join
// (HashBuild, joinIndex) keeps the build side as vectors and gathers its
// output through selection vectors; the sort encodes numeric keys to
// order-preserving uint64s and radix-sorts a row-id permutation
// (sortPerm); ORDER BY + LIMIT is a bounded heap per partition
// (NewBatchTopK). Under a MemoryBudget the same operators go out of core
// (grace join, generation-spilling aggregation, external sort) with the
// spill priced on a modeled storage tier.
//
// The row engine (Op, ops.go) is the volcano-style pull interpreter: one
// Row of boxed Values at a time, serial, simple. It is the oracle — the
// parity and differential tests and the repository benchmark's
// correctness gate hold the batch engine to its output row for row — so
// it stays deliberately naive.
package relational

import (
	"cmp"
	"fmt"
	"strconv"
	"sync"
)

// Type is a column type.
type Type int

// Column types.
const (
	Int Type = iota
	Float
	String
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Value is one typed cell.
type Value struct {
	T Type
	I int64
	F float64
	S string
}

// IntV, FloatV and StringV construct cells.
func IntV(v int64) Value     { return Value{T: Int, I: v} }
func FloatV(v float64) Value { return Value{T: Float, F: v} }
func StringV(v string) Value { return Value{T: String, S: v} }

// AsFloat coerces numeric values to float64; it returns an error for
// strings.
func (v Value) AsFloat() (float64, error) {
	switch v.T {
	case Int:
		return float64(v.I), nil
	case Float:
		return v.F, nil
	default:
		return 0, fmt.Errorf("relational: cannot treat %q as a number", v.S)
	}
}

// String renders the value.
func (v Value) String() string {
	switch v.T {
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return v.S
	}
}

// Compare orders two values: -1, 0 or +1. Numerics compare numerically:
// two ints exactly, an int with a float as floats. Strings compare
// lexicographically. Comparing a string with a numeric is an error.
func Compare(a, b Value) (int, error) {
	if a.T == String || b.T == String {
		if a.T != String || b.T != String {
			return 0, fmt.Errorf("relational: cannot compare %v with %v", a.T, b.T)
		}
		switch {
		case a.S < b.S:
			return -1, nil
		case a.S > b.S:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.T == Int && b.T == Int {
		return cmp.Compare(a.I, b.I), nil
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	switch {
	case af < bf:
		return -1, nil
	case af > bf:
		return 1, nil
	default:
		return 0, nil
	}
}

// Equal reports a == b under Compare semantics.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Key returns a map-key form of the value for hashing (group-by, join).
func (v Value) Key() string {
	switch v.T {
	case Int:
		return "i" + strconv.FormatInt(v.I, 10)
	case Float:
		return "f" + strconv.FormatFloat(v.F, 'b', -1, 64)
	default:
		return "s" + v.S
	}
}

// Column describes one schema column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered column list.
type Schema []Column

// ColIndex returns the index of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Concat returns the schema of a join output: s then t.
func (s Schema) Concat(t Schema) Schema {
	out := make(Schema, 0, len(s)+len(t))
	out = append(out, s...)
	out = append(out, t...)
	return out
}

// Row is one tuple.
type Row []Value

// Clone copies the row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

// Relation is a materialized table in one of two construction forms.
//
// Row-built (NewRelation + Append, or a literal with Rows set): the row
// store is authoritative and the batch engine lazily builds — and caches —
// a columnar image of it, so scans hand out zero-copy column windows.
// Appending rows is detected and rebuilds the image; mutating existing
// rows in place is not — call InvalidateColumnar after in-place edits, or
// treat Rows as immutable once queries have run.
//
// Column-built (NewColumnRelation): the column vectors are authoritative
// and nothing is boxed. This is the form every batch tree drains into
// (Drain): shard placements, fragment outputs, every movement primitive's
// result, and the result a batch or distributed query returns. Rows of a
// column-built relation is nil until RowView boxes it on demand — for the
// printers, examples and tests that read rows; the engine and the wire
// encoder read Columnar — and Append is an error.
//
// One invariant covers both: the vectors Columnar hands out are immutable.
// They are shared — by concurrent scans, by zero-copy shard windows of a
// registered table, by every shard probing one broadcast build side — so
// whoever needs different cells builds fresh vectors.
type Relation struct {
	Name   string
	Schema Schema
	Rows   []Row

	colMu    sync.Mutex
	colBuilt bool // column-built: cols authoritative, colRows the row count
	colRows  int
	cols     []Vector
}

// NewRelation returns an empty row-built relation.
func NewRelation(name string, schema Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// NewColumnRelation returns a column-built relation of n rows over cols
// (one vector per schema column, each holding n values; n is explicit so
// a zero-column relation still carries its row count). The relation takes
// the vectors as immutable: the caller must not write to them afterwards.
func NewColumnRelation(name string, schema Schema, cols []Vector, n int) *Relation {
	return &Relation{Name: name, Schema: schema, colBuilt: true, colRows: n, cols: cols}
}

// Append adds a row after arity/type checking.
func (r *Relation) Append(row Row) error {
	if r.colBuilt {
		return fmt.Errorf("relational: %s: append to a column-built relation", r.Name)
	}
	if len(row) != len(r.Schema) {
		return fmt.Errorf("relational: %s: row arity %d != schema arity %d", r.Name, len(row), len(r.Schema))
	}
	for i, v := range row {
		if v.T != r.Schema[i].Type {
			return fmt.Errorf("relational: %s: column %s expects %v, got %v", r.Name, r.Schema[i].Name, r.Schema[i].Type, v.T)
		}
	}
	r.Rows = append(r.Rows, row)
	return nil
}

// MustAppend is Append, panicking on error (for table literals in tests
// and generators).
func (r *Relation) MustAppend(row Row) {
	if err := r.Append(row); err != nil {
		panic(err)
	}
}

// Len returns the row count.
func (r *Relation) Len() int {
	if r.colBuilt {
		return r.colRows
	}
	return len(r.Rows)
}

// RowView returns the relation as rows, and is how to read rows from a
// relation whose construction form the caller does not control (a query
// result is column-built unless the row engine produced it). A row-built
// relation hands out its row store; a column-built one boxes its vectors
// on first use (one backing array) and keeps the result in Rows. The rows
// are a view: like the vectors, they must not be written to.
func (r *Relation) RowView() []Row {
	if !r.colBuilt {
		return r.Rows
	}
	r.colMu.Lock()
	defer r.colMu.Unlock()
	if r.Rows == nil && r.colRows > 0 {
		r.Rows = appendRows(make([]Row, 0, r.colRows), r.cols, r.colRows)
	}
	return r.Rows
}

// InvalidateColumnar drops a row-built relation's cached columnar image
// so the next batch scan rebuilds it — required after mutating existing
// rows in place (appends are detected automatically).
func (r *Relation) InvalidateColumnar() {
	if r.colBuilt {
		return
	}
	r.colMu.Lock()
	defer r.colMu.Unlock()
	r.cols = nil
	r.colRows = 0
}

// Columnar returns the relation's column vectors: a column-built
// relation's own, or the cached columnar image of a row-built one, built
// on first use (and rebuilt if rows were appended since). The returned
// vectors are shared and must be treated as immutable.
func (r *Relation) Columnar() []Vector {
	if r.colBuilt {
		return r.cols
	}
	r.colMu.Lock()
	defer r.colMu.Unlock()
	if r.cols != nil && r.colRows == len(r.Rows) {
		return r.cols
	}
	cols := make([]Vector, len(r.Schema))
	for c, col := range r.Schema {
		v := NewVector(col.Type, len(r.Rows))
		switch col.Type {
		case Int:
			for _, row := range r.Rows {
				v.Ints = append(v.Ints, row[c].I)
			}
		case Float:
			for _, row := range r.Rows {
				v.Floats = append(v.Floats, row[c].F)
			}
		default:
			for _, row := range r.Rows {
				v.Strs = append(v.Strs, row[c].S)
			}
		}
		cols[c] = v
	}
	r.cols = cols
	r.colRows = len(r.Rows)
	return cols
}
