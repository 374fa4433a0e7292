// Package relational is a small in-memory relational engine: typed
// schemas, relations, and two interchangeable executions of the same
// operators (scan, filter, project, hash join, group/aggregate, sort,
// top-k, limit). It is the execution substrate the SQL layer
// (internal/sql) lowers onto, standing in for the "query language" side
// of Section IV.C.1's query-languages-to-frameworks discussion.
//
// The batch engine (BatchOp) is the one queries run on: columnar Batches
// of typed Vectors flow through morsel-parallel operators, and nothing on
// its path boxes a cell per input row. Every filter and computed column is
// a typed program (expr.go: VecExpr, VecPred) compiled once at plan time:
// arithmetic runs one kernel per operator over the batch, and comparisons
// produce or narrow an ascending selection with the branch-free kernels of
// internal/kernels — a coded String column compares int32 codes after
// resolving the literal against its Dict. AND narrows, OR unions and NOT
// complements selections. Materialization is late: a Batch may carry a
// selection (Sel, ascending indexes into its vectors, which then also
// hold rejected rows), and Len counts the selected rows. A filter narrows
// Sel and copies nothing; a projection computes over the vectors with Sel
// as the failure scope; the join probe, the aggregates and the top-k heap
// read through it. Rows are gathered once, where a pipeline breaker
// concatenates batches (concatCols), and Dense gathers a batch for a
// consumer that reads its vectors row by row. Every count taken from a
// batch counts selected rows. Group-by (PartialAgg) gives groups
// dense ids through a typed keyIndex and keeps their states as
// struct-of-arrays vectors folded column-at-a-time; the hash join
// (HashBuild, joinIndex) keeps the build side as vectors and gathers its
// output through selection vectors. Under both, a single Int key is
// addressed directly — slot k - lo, no hash — while a window over the
// keys' range takes no more memory than a hashed table for as many keys
// would, and hashed otherwise (intTable). A String column with few
// distinct values is dictionary-coded (StringVector: coded when the
// codes and dictionary take fewer bytes than the plain string headers):
// it travels as int32 codes over one shared, immutable Dict through every
// gather, slice and concatenation, and a single coded key resolves through
// a per-Dict code → ref translation of the key index; cells decode only
// at the edges (Str, Value), and byte counts read the decoded strings. The
// sort encodes numeric keys to order-preserving uint64s and radix-sorts a
// row-id permutation (sortPerm); ORDER BY + LIMIT is a bounded heap per
// partition (NewBatchTopK). A MemoryBudget is a meter: the same operators
// run their in-memory algorithms and the budget prices, on a modeled
// storage tier, the spill an out-of-core run would cause (grace join
// partitions, aggregate generations, sort runs).
//
// A Relation is built from rows or from columns, grows only by
// ExtendColumns (Extend is its row form) — a new column-built snapshot
// that leaves the old one intact, its coded String columns still coded —
// and a row-built one freezes once read as columns (see Relation).
//
// The row engine (Op, ops.go) is the volcano-style pull interpreter: one
// Row of boxed Values at a time, serial, simple, over either form: its
// Scan reads a column-built relation's vectors and boxes one Row per
// Next, caching nothing on the relation. It is the oracle — the parity
// and differential tests and the repository benchmark's correctness gate
// hold the batch engine to its output row for row — so it stays
// deliberately naive.
package relational

import (
	"cmp"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
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

// Relation is a materialized table in one of two construction forms, with
// one way to grow.
//
// Row-built (NewRelation + Append, or a literal with Rows set): the row
// store is authoritative until the relation is first read as columns —
// a batch scan, a shard placement, EncodedBytes, an Extend — which builds
// and caches its columnar image and freezes it: Append errors from then
// on, so the image never goes stale.
//
// Column-built (NewColumnRelation, Extend): the column vectors are
// authoritative and nothing is boxed. This is the form every batch tree
// drains into (Drain) and every registered table grows into: the demo
// tables (sql.SalesRelation, sql.CustomersRelation), shard placements,
// fragment outputs, every movement primitive's result, the result a batch
// or distributed query returns, and a table after its first append. Rows
// of a column-built relation is nil until RowView boxes it on demand — for
// the printers, examples and tests; the batch engine and the wire encoder
// read Columnar, and the row engine's Scan boxes one row at a time — and
// Append is an error.
//
// Growth is ExtendColumns (or Extend, its row form): a new column-built
// relation holding the rows followed by the new ones, leaving the receiver
// as it was. Every relation is a snapshot, and the vectors Columnar hands
// out are immutable. They are shared — by concurrent scans, by zero-copy
// shard windows of a registered table, by every shard probing one
// broadcast build side, by the snapshots an Extend chain leaves behind —
// so whoever needs different cells builds fresh vectors.
type Relation struct {
	Name   string
	Schema Schema
	Rows   []Row

	colMu    sync.Mutex
	colBuilt bool // column-built: cols authoritative, colRows the row count
	colRows  int
	// cols are the vectors readers get, an Extend result's clipped to
	// colRows; spare holds them with their capacity, and enc the encoders
	// of its coded String columns (nil where none was needed yet), which
	// only the first Extend may claim (grown) and append into, past what
	// readers see.
	cols  []Vector
	spare []Vector
	enc   []*dictEncoder
	grown atomic.Bool
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

// Append adds a row to a row-built relation after arity/type checking. It
// errors on a column-built relation and on a row-built one already read as
// columns: grow those with Extend.
func (r *Relation) Append(row Row) error {
	if err := r.check(row); err != nil {
		return err
	}
	r.colMu.Lock()
	defer r.colMu.Unlock()
	if r.colBuilt || r.cols != nil {
		return fmt.Errorf("relational: %s: append to a relation read as columns (grow it with Extend)", r.Name)
	}
	r.Rows = append(r.Rows, row)
	return nil
}

// check validates a row's arity and cell types against the schema.
func (r *Relation) check(row Row) error {
	if len(row) != len(r.Schema) {
		return fmt.Errorf("relational: %s: row arity %d != schema arity %d", r.Name, len(row), len(r.Schema))
	}
	for i, v := range row {
		if v.T != r.Schema[i].Type {
			return fmt.Errorf("relational: %s: column %s expects %v, got %v", r.Name, r.Schema[i].Name, r.Schema[i].Type, v.T)
		}
	}
	return nil
}

// Extend returns a new column-built relation holding r's rows followed by
// rows: ExtendColumns over their transpose, in which each String column is
// coded exactly when StringVector would code it. An invalid row fails the
// call with nothing written.
func (r *Relation) Extend(rows []Row) (*Relation, error) {
	for _, row := range rows {
		if err := r.check(row); err != nil {
			return nil, err
		}
	}
	return r.ExtendColumns(transpose(r.Schema, rows), len(rows))
}

// ExtendColumns returns a new column-built relation holding r's rows
// followed by the n rows of cols — one vector per schema column, of its
// type, holding n values; any other shape fails the call with nothing
// written. It is the one way a table grows. r and every relation extended
// before it keep their rows: only r's first Extend appends into the spare
// capacity of r's vectors, past anything a reader of r can see; a later
// Extend of r, and any Extend of a row-built r (which reads, and so
// freezes, its image), copies.
//
// A dictionary-coded String column stays coded as it grows. Cells whose
// strings its Dict holds append as codes; unseen strings get a new Dict
// whose leading entries are the old one's (the prefix rule), so the codes
// every earlier snapshot holds stay valid and no Dict's entries ever
// change. The encoder behind the Dicts passes down the chain of first
// Extends with the spare capacity, so a batch costs its own cells, never a
// copy of the dictionary. The column turns plain, once, when the whole
// column breaks StringVector's byte rule 16·d + 4·n < 16·n; a plain column
// stays plain, and an empty r takes each String column's form from cols.
func (r *Relation) ExtendColumns(cols []Vector, n int) (*Relation, error) {
	if err := r.checkColumns(cols, n); err != nil {
		return nil, err
	}
	old, k := r.Columnar(), r.Len()
	m := k + n
	inPlace := k > 0 && r.spare != nil && r.grown.CompareAndSwap(false, true)
	out := &Relation{Name: r.Name, Schema: r.Schema, colBuilt: true, colRows: m,
		cols: make([]Vector, len(old)), spare: make([]Vector, len(old)), enc: make([]*dictEncoder, len(old))}
	for c := range old {
		var v Vector
		var enc *dictEncoder
		if inPlace {
			v, enc = r.spare[c], r.enc[c]
		} else {
			form := &old[c]
			if k == 0 {
				form = &cols[c]
			}
			v = Vector{T: form.T, Dict: form.Dict}
			v.grow(m)
			v.AppendRange(&old[c], 0, k)
		}
		if v.T == String {
			enc = v.extendStrings(enc, &cols[c])
		} else {
			v.AppendRange(&cols[c], 0, n)
		}
		out.spare[c], out.enc[c], out.cols[c] = v, enc, v.Slice(0, m)
	}
	return out, nil
}

// checkColumns validates a column batch against the schema: one vector
// per column, of its type, each holding n values.
func (r *Relation) checkColumns(cols []Vector, n int) error {
	if len(cols) != len(r.Schema) {
		return fmt.Errorf("relational: %s: %d columns != schema arity %d", r.Name, len(cols), len(r.Schema))
	}
	for c, col := range r.Schema {
		if cols[c].T != col.Type {
			return fmt.Errorf("relational: %s: column %s expects %v, got %v", r.Name, col.Name, col.Type, cols[c].T)
		}
		if got := cols[c].Len(); got != n {
			return fmt.Errorf("relational: %s: column %s holds %d values, want %d", r.Name, col.Name, got, n)
		}
	}
	return nil
}

// transpose returns rows, which fit schema, as one vector per column, each
// String column coded exactly when StringVector would code it.
func transpose(schema Schema, rows []Row) []Vector {
	cols := make([]Vector, len(schema))
	for c, col := range schema {
		cols[c] = NewVector(col.Type, len(rows))
		appendColumn(&cols[c], rows, c)
		if col.Type == String {
			cols[c] = StringVector(cols[c].Strs)
		}
	}
	return cols
}

// appendColumn appends column c of rows to v, whose type the cells have.
func appendColumn(v *Vector, rows []Row, c int) {
	switch v.T {
	case Int:
		for _, row := range rows {
			v.Ints = append(v.Ints, row[c].I)
		}
	case Float:
		for _, row := range rows {
			v.Floats = append(v.Floats, row[c].F)
		}
	default:
		for _, row := range rows {
			v.Strs = append(v.Strs, row[c].S)
		}
	}
}

// Slice returns rows [lo, hi) of r as a column-built relation over
// clipped windows of r's vectors.
func (r *Relation) Slice(lo, hi int) *Relation {
	cols := r.Columnar()
	out := make([]Vector, len(cols))
	for c := range cols {
		out[c] = cols[c].Slice(lo, hi)
	}
	return NewColumnRelation(r.Name, r.Schema, out, hi-lo)
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
// on first use (one backing array) and keeps the result in Rows — for the
// life of the relation, which is why the row engine's Scan reads the
// vectors instead. The rows are a view: like the vectors, they must not
// be written to.
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

// Columnar returns the relation's column vectors: a column-built
// relation's own, or the columnar image of a row-built one, built on first
// use — which freezes the row store (see Append), and codes each String
// column whose dictionary saves bytes (StringVector). The returned vectors
// are shared and must be treated as immutable.
func (r *Relation) Columnar() []Vector {
	if r.colBuilt {
		return r.cols
	}
	r.colMu.Lock()
	defer r.colMu.Unlock()
	if r.cols == nil {
		r.cols = transpose(r.Schema, r.Rows)
	}
	return r.cols
}
