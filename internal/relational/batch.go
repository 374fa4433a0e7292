package relational

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
)

// BatchSize is the number of rows per columnar chunk — small enough to
// stay cache-resident, large enough to amortize per-batch dispatch. It is
// also the morsel granularity of the parallel scan.
const BatchSize = 1024

// Vector is one typed column of a batch: Ints, Floats or — for a String
// column — one of two forms. A plain String vector holds its cells in
// Strs; a coded one holds an int32 code per cell in Codes over a shared,
// immutable Dict, and Strs is nil. StringVector decides the form when a
// whole column is born at once (the demo tables, the transpose of a
// row-built relation or of an appended batch, a decoded ingest batch):
// coded exactly when the codes and dictionary take fewer bytes than the
// plain headers. From there the form follows the data. Gather, Slice and
// every append keep a coded vector coded while the cells come from vectors
// over the same Dict — an empty vector takes the Dict of the first coded
// cells appended to it — and a mix of dictionaries, or of coded and plain
// cells, comes out plain: the vector's cells are copied out decoded. A
// table column is the one exception: as it grows (Relation.ExtendColumns)
// it encodes new cells into a new Dict that keeps the old one as its
// prefix, and stays coded while the byte rule holds for the whole column.
// No Dict's entries ever change. Str and Value decode a cell; nothing
// outside this package reads Strs. Sizes (RowSizer) count the decoded
// strings, so the form never moves a byte count.
//
// Vectors are immutable once a batch has been emitted, so downstream
// operators may share them without copying.
type Vector struct {
	T      Type
	Ints   []int64
	Floats []float64
	Strs   []string
	Dict   *Dict   // a coded String vector's dictionary; nil when plain
	Codes  []int32 // a coded String vector's cells, indexes into Dict
}

// NewVector returns an empty vector of type t with the given capacity.
func NewVector(t Type, capacity int) Vector {
	v := Vector{T: t}
	v.grow(capacity)
	return v
}

// Len returns the number of values.
func (v *Vector) Len() int {
	switch {
	case v.T == Int:
		return len(v.Ints)
	case v.T == Float:
		return len(v.Floats)
	case v.Dict != nil:
		return len(v.Codes)
	default:
		return len(v.Strs)
	}
}

// Append adds one value, coercing Int into a Float vector (the only legal
// cross-type combination the SQL layer produces). A coded vector turns
// plain first.
func (v *Vector) Append(val Value) {
	switch v.T {
	case Int:
		v.Ints = append(v.Ints, val.I)
	case Float:
		if val.T == Int {
			v.Floats = append(v.Floats, float64(val.I))
		} else {
			v.Floats = append(v.Floats, val.F)
		}
	default:
		v.plain()
		v.Strs = append(v.Strs, val.S)
	}
}

// Value reads element i back as a Value.
func (v *Vector) Value(i int) Value {
	switch v.T {
	case Int:
		return IntV(v.Ints[i])
	case Float:
		return FloatV(v.Floats[i])
	default:
		return StringV(v.Str(i))
	}
}

// grow reallocates the payload with room for n more values.
func (v *Vector) grow(n int) {
	switch {
	case v.T == Int:
		v.Ints = append(make([]int64, 0, len(v.Ints)+n), v.Ints...)
	case v.T == Float:
		v.Floats = append(make([]float64, 0, len(v.Floats)+n), v.Floats...)
	case v.Dict != nil:
		v.Codes = append(make([]int32, 0, len(v.Codes)+n), v.Codes...)
	default:
		v.Strs = append(make([]string, 0, len(v.Strs)+n), v.Strs...)
	}
}

// appendCell appends element i of src, a vector of the same type.
func (v *Vector) appendCell(src *Vector, i int) {
	switch {
	case v.T == Int:
		v.Ints = append(v.Ints, src.Ints[i])
	case v.T == Float:
		v.Floats = append(v.Floats, src.Floats[i])
	case v.codedFrom(src):
		v.Codes = append(v.Codes, src.Codes[i])
	default:
		v.Strs = append(v.Strs, src.Str(i))
	}
}

// setCell overwrites element i with element j of src, a vector of the
// same type.
func (v *Vector) setCell(i int, src *Vector, j int) {
	switch {
	case v.T == Int:
		v.Ints[i] = src.Ints[j]
	case v.T == Float:
		v.Floats[i] = src.Floats[j]
	case v.Dict != nil && v.Dict == src.Dict:
		v.Codes[i] = src.Codes[j]
	default:
		v.plain()
		v.Strs[i] = src.Str(j)
	}
}

// cmpCell orders a[i] against b[j] as Compare orders the boxed cells
// (vectors of the same type): -1, 0 or +1, a NaN tying with everything.
func cmpCell(a *Vector, i int, b *Vector, j int) int {
	switch a.T {
	case Int:
		return cmp.Compare(a.Ints[i], b.Ints[j])
	case Float:
		x, y := a.Floats[i], b.Floats[j]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	default:
		if a.Dict != nil && a.Dict == b.Dict && a.Codes[i] == b.Codes[j] {
			return 0
		}
		return cmp.Compare(a.Str(i), b.Str(j))
	}
}

// clone copies the vector's payload (a coded one keeps sharing its Dict).
func (v *Vector) clone() Vector {
	return Vector{
		T:      v.T,
		Ints:   append([]int64(nil), v.Ints...),
		Floats: append([]float64(nil), v.Floats...),
		Strs:   append([]string(nil), v.Strs...),
		Dict:   v.Dict,
		Codes:  append([]int32(nil), v.Codes...),
	}
}

// GatherVector materializes the selected elements of src, delegating Int
// and Float payloads to the gather kernels; a coded vector gathers its
// codes over the same Dict.
func GatherVector(src *Vector, sel []int32) Vector {
	v := Vector{T: src.T, Dict: src.Dict}
	switch {
	case src.T == Int:
		v.Ints = kernels.Gather(src.Ints, sel)
	case src.T == Float:
		v.Floats = kernels.GatherFloat64(src.Floats, sel)
	case src.Dict != nil:
		v.Codes = make([]int32, len(sel))
		for i, j := range sel {
			v.Codes[i] = src.Codes[j]
		}
	default:
		v.Strs = make([]string, len(sel))
		for i, j := range sel {
			v.Strs[i] = src.Strs[j]
		}
	}
	return v
}

// scatterVector lays the elements of src that from selects out in a
// vector of n elements: element to[i] is src's element from[i], and every
// other element is the type's zero value (code 0 of a coded vector).
func scatterVector(src *Vector, from, to []int32, n int) Vector {
	v := Vector{T: src.T, Dict: src.Dict}
	switch {
	case src.T == Int:
		v.Ints = scattered(src.Ints, from, to, n)
	case src.T == Float:
		v.Floats = scattered(src.Floats, from, to, n)
	case src.Dict != nil:
		v.Codes = scattered(src.Codes, from, to, n)
	default:
		v.Strs = scattered(src.Strs, from, to, n)
	}
	return v
}

func scattered[T any](src []T, from, to []int32, n int) []T {
	out := make([]T, n)
	for i, j := range from {
		out[to[i]] = src[j]
	}
	return out
}

// AppendRange appends elements [lo, hi) of src, a vector of the same type.
// Appending no cells leaves v as it is, form included.
func (v *Vector) AppendRange(src *Vector, lo, hi int) {
	switch {
	case lo == hi:
	case v.T == Int:
		v.Ints = append(v.Ints, src.Ints[lo:hi]...)
	case v.T == Float:
		v.Floats = append(v.Floats, src.Floats[lo:hi]...)
	case v.codedFrom(src):
		v.Codes = append(v.Codes, src.Codes[lo:hi]...)
	default:
		v.appendStrs(src, lo, hi)
	}
}

// AppendGather appends the selected elements of src, a vector of the same
// type, in selection order.
func (v *Vector) AppendGather(src *Vector, sel []int32) {
	switch {
	case len(sel) == 0:
	case v.T == Int:
		v.Ints = appendGathered(v.Ints, src.Ints, sel)
	case v.T == Float:
		v.Floats = appendGathered(v.Floats, src.Floats, sel)
	case v.codedFrom(src):
		v.Codes = appendGathered(v.Codes, src.Codes, sel)
	default:
		for _, j := range sel {
			v.Strs = append(v.Strs, src.Str(int(j)))
		}
	}
}

// appendGathered appends src[j] for each j of sel to dst.
func appendGathered[T any](dst, src []T, sel []int32) []T {
	k := len(dst)
	dst = slices.Grow(dst, len(sel))[:k+len(sel)]
	for i, j := range sel {
		dst[k+i] = src[j]
	}
	return dst
}

// Slice returns the [from, to) window sharing the backing arrays (and a
// coded vector's Dict), clipped to its length: an append to the window
// reallocates instead of writing over the parent's later cells.
func (v *Vector) Slice(from, to int) Vector {
	out := Vector{T: v.T, Dict: v.Dict}
	switch {
	case v.T == Int:
		out.Ints = v.Ints[from:to:to]
	case v.T == Float:
		out.Floats = v.Floats[from:to:to]
	case v.Dict != nil:
		out.Codes = v.Codes[from:to:to]
	default:
		out.Strs = v.Strs[from:to:to]
	}
	return out
}

// Batch is a columnar chunk of rows flowing through the batch engine.
// Seq is a global order tag: all rows of batch s precede all rows of
// batch s+1 in the equivalent serial (row-at-a-time) execution, which is
// what lets the morsel dispatcher reassemble deterministic output.
//
// A batch may be selected: Sel, when non-nil, lists the rows the batch
// carries as ascending indexes into its column vectors, which then also
// hold the rows a filter rejected. A filter narrows Sel instead of copying
// the rows that pass, and the operators above it read through Sel, so a
// row is copied once, where a pipeline breaker (concatCols under Drain,
// drainCols and the sort) gathers it. Len counts the selected rows, and
// so does every count taken from a batch — byte counts, dispatched rows,
// OpStats and first-seen ordinals — so a selection moves no modeled
// number. Dense returns the batch gathered, for a consumer that reads the
// vectors row by row. A Sel is never written once emitted, so batches
// may share one, and it is allocated to its size, never cut from a pooled
// scratch buffer: a parallel drain buffers the later partitions' batches
// (InOrder), and a Sel pinning a larger buffer would keep that buffer
// alive.
type Batch struct {
	Schema Schema
	Cols   []Vector
	Seq    int64
	Sel    []int32
	// n is the explicit physical row count: column vectors must all have
	// n values, and a zero-column batch (e.g. the pre-aggregation
	// projection of a bare COUNT(*)) still carries its row count.
	n int
}

// NewBatch returns an empty batch with per-column capacity.
func NewBatch(schema Schema, capacity int) *Batch {
	b := &Batch{Schema: schema, Cols: make([]Vector, len(schema))}
	for i, c := range schema {
		b.Cols[i] = NewVector(c.Type, capacity)
	}
	return b
}

// BatchOf wraps n rows held as columns — one vector of n values per
// schema column — as a batch.
func BatchOf(schema Schema, cols []Vector, n int) *Batch {
	return &Batch{Schema: schema, Cols: cols, n: n}
}

// Len returns the row count: the selected rows of a selected batch.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// Dense returns the batch with its selected rows gathered into vectors of
// their own: b itself when it carries no selection.
func (b *Batch) Dense() *Batch {
	if b.Sel == nil {
		return b
	}
	out := &Batch{Schema: b.Schema, Cols: make([]Vector, len(b.Cols)), Seq: b.Seq, n: len(b.Sel)}
	for c := range b.Cols {
		out.Cols[c] = GatherVector(&b.Cols[c], b.Sel)
	}
	return out
}

// window returns rows [lo, hi) of the Len rows, sharing the vectors (and
// the selection).
func (b *Batch) window(lo, hi int) *Batch {
	if b.Sel != nil {
		return &Batch{Schema: b.Schema, Cols: b.Cols, Seq: b.Seq, Sel: b.Sel[lo:hi:hi], n: b.n}
	}
	out := &Batch{Schema: b.Schema, Cols: make([]Vector, len(b.Cols)), Seq: b.Seq, n: hi - lo}
	for c := range b.Cols {
		out.Cols[c] = b.Cols[c].Slice(lo, hi)
	}
	return out
}

// row materializes row r of the vectors (selected or not) into buf
// (grown as needed) and returns it.
func (b *Batch) row(r int, buf Row) Row {
	if cap(buf) < len(b.Cols) {
		buf = make(Row, len(b.Cols))
	}
	buf = buf[:len(b.Cols)]
	for c := range b.Cols {
		buf[c] = b.Cols[c].Value(r)
	}
	return buf
}

// appendRows boxes n rows held as columns onto dst. The cells come from
// one backing array per call — one allocation instead of one per row.
func appendRows(dst []Row, cols []Vector, n int) []Row {
	w := len(cols)
	flat := make([]Value, n*w)
	for c := range cols {
		switch col := &cols[c]; col.T {
		case Int:
			for r, v := range col.Ints[:n] {
				flat[r*w+c] = IntV(v)
			}
		case Float:
			for r, v := range col.Floats[:n] {
				flat[r*w+c] = FloatV(v)
			}
		default:
			for r := range n {
				flat[r*w+c] = StringV(col.Str(r))
			}
		}
	}
	for r := 0; r < n; r++ {
		dst = append(dst, flat[r*w:(r+1)*w:(r+1)*w])
	}
	return dst
}

// concatCols concatenates the batches' rows, in order, into one vector
// per schema column: the one copy of a selected batch's rows.
func concatCols(schema Schema, batches []*Batch) (cols []Vector, n int) {
	for _, b := range batches {
		n += b.Len()
	}
	sources := make([][]Vector, len(batches))
	for i, b := range batches {
		sources[i] = b.Cols
	}
	cols = NewColumns(schema, n, sources...)
	for c := range cols {
		for _, b := range batches {
			if b.Sel != nil {
				cols[c].AppendGather(&b.Cols[c], b.Sel)
			} else {
				cols[c].AppendRange(&b.Cols[c], 0, b.n)
			}
		}
	}
	return cols, n
}

// windowBatches cuts n rows held as whole columns into BatchSize windows
// sharing the columns' storage, Seq-tagged in order.
func windowBatches(schema Schema, cols []Vector, n int) []*Batch {
	var out []*Batch
	for lo := 0; lo < n; lo += BatchSize {
		hi := min(lo+BatchSize, n)
		b := &Batch{Schema: schema, Cols: make([]Vector, len(cols)), Seq: int64(lo / BatchSize), n: hi - lo}
		for c := range cols {
			b.Cols[c] = cols[c].Slice(lo, hi)
		}
		out = append(out, b)
	}
	return out
}

// BatchOp is the batch-at-a-time dual of Op. NextBatch returns (nil, nil)
// at end of stream; emitted batches are never empty. Like Op, a BatchOp
// tree is single-use.
type BatchOp interface {
	// Schema describes the rows the batches carry.
	Schema() Schema
	// NextBatch returns the next non-empty batch, or (nil, nil) at end.
	NextBatch() (*Batch, error)
	// Stats reports rows produced so far (summed across partitions).
	Stats() OpStats
}

// Partitioner is implemented by batch operators that can split into
// independent streams for the morsel dispatcher: contiguous morsel
// ranges, so stream i's batches all precede stream i+1's and handing the
// streams over in stream order reproduces the serial order.
type Partitioner interface {
	BatchOp
	// Partition splits the operator into at most n streams covering the
	// same rows. The receiver must not be consumed afterwards.
	Partition(n int) []BatchOp
}

// opCount is a race-safe row and build-time counter shared by an
// operator's partitions.
type opCount struct{ n, buildNs atomic.Int64 }

func (c *opCount) add(n int)                  { c.n.Add(int64(n)) }
func (c *opCount) builtSince(start time.Time) { c.buildNs.Add(int64(time.Since(start))) }
func (c *opCount) stats() OpStats {
	return OpStats{RowsOut: int(c.n.Load()), BuildNs: c.buildNs.Load()}
}

// outQueue is how a pipeline breaker hands out its output: the first
// next runs build, which makes every output batch at once (timed into
// BuildNs), and each call hands out the next one, counting its rows. A
// built queue ends in a nil batch, which stays; a failed build leaves
// the queue unbuilt.
type outQueue []*Batch

func (q *outQueue) next(stat *opCount, build func() ([]*Batch, error)) (*Batch, error) {
	if *q == nil {
		start := time.Now()
		out, err := build()
		if err != nil {
			return nil, err
		}
		stat.builtSince(start)
		*q = append(out, nil)
	}
	b := (*q)[0]
	if b != nil {
		*q = (*q)[1:]
		stat.add(b.Len())
	}
	return b, nil
}

// EffectiveWorkers resolves a worker-count setting: n if positive, else
// runtime.NumCPU().
func EffectiveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// eachBatch splits op into up to workers static partitions (contiguous
// ranges: partition i's rows precede partition i+1's) and drains each on
// its own goroutine, handing every batch to fn with its partition's
// index; parts reports the partition count first, so the caller can size
// per-partition state. The partitions share a CancelToken: the first
// failure — the child's or fn's — trips it and the siblings stop at their
// next batch boundary instead of draining the full table; that first
// error is returned.
func eachBatch(op BatchOp, workers int, parts func(n int), fn func(part int, b *Batch) error) error {
	ps := partitionOrSelf(op, workers)
	parts(len(ps))
	stop := NewCancelToken()
	return Parallel(len(ps), stop, func(i int) error {
		return drain(ps[i], nil, false, stop, func(b *Batch) error { return fn(i, b) })
	})
}

// InOrder drains op through up to workers static partitions (0 = NumCPU),
// each on its own goroutine, and hands fn every batch in serial order:
// partition 0's as they are made, the later partitions' once every
// partition has ended, in partition order. At one partition it is the
// serial pull loop: each batch reaches fn before the next is pulled. fn
// never runs concurrently with itself, and no partition ever waits on it
// but partition 0. The first failure — a partition's or fn's — stops the
// other partitions at their next batch boundary and is returned.
func InOrder(op BatchOp, workers int, fn func(b *Batch) error) error {
	var later [][]*Batch
	err := eachBatch(op, EffectiveWorkers(workers), func(n int) { later = make([][]*Batch, n) }, func(i int, b *Batch) error {
		if i == 0 {
			return fn(b)
		}
		later[i] = append(later[i], b)
		return nil
	})
	if err != nil {
		return err
	}
	for _, bs := range later {
		for _, b := range bs {
			if err := fn(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// Parallel runs fn(1) … fn(n-1) on goroutines of their own and fn(0) on
// the caller's, and waits for them all: at n = 1 it is a plain call. The
// first error trips stop, which the others poll to give up early, and is
// returned (so is a cause stop was tripped with before).
func Parallel(n int, stop *CancelToken, fn func(i int) error) error {
	run := func(i int) {
		if err := fn(i); err != nil {
			stop.Cancel(err)
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	if n > 0 {
		run(0)
	}
	wg.Wait()
	return stop.Err()
}

// drain hands fn every batch of the stream op, in order, until the
// stream ends or fails, fn fails, or stop trips. When pulled is set the
// stream's first batch was taken already: head, nil if the stream was
// empty.
func drain(op BatchOp, head *Batch, pulled bool, stop *CancelToken, fn func(b *Batch) error) error {
	for b := head; !stop.Cancelled(); pulled = false {
		if !pulled {
			var err error
			if b, err = op.NextBatch(); err != nil {
				return err
			}
		}
		if b == nil {
			return nil
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// drainCols materializes op as whole columns in serial order (InOrder).
func drainCols(op BatchOp, workers int) (cols []Vector, n int, err error) {
	var batches []*Batch
	err = InOrder(op, workers, func(b *Batch) error {
		batches = append(batches, b)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	cols, n = concatCols(op.Schema(), batches)
	return cols, n, nil
}

// Drain runs op to end of stream through the morsel dispatcher (InOrder,
// workers 0 = NumCPU) and returns its output as a column-built relation:
// the batches' vectors concatenated in serial order, nothing boxed. It is
// how a distributed fragment's output becomes the next fragment's input.
func Drain(op BatchOp, workers int, name string) (*Relation, error) {
	cols, n, err := drainCols(op, workers)
	if err != nil {
		return nil, err
	}
	return NewColumnRelation(name, op.Schema(), cols, n), nil
}

// partitionOrSelf splits op into up to n streams when it supports it,
// falling back to the single serial stream.
func partitionOrSelf(op BatchOp, n int) []BatchOp {
	if p, ok := op.(Partitioner); ok && n > 1 {
		if parts := p.Partition(n); len(parts) > 0 {
			return parts
		}
	}
	return []BatchOp{op}
}

// RowsOf adapts a batch operator to the row-at-a-time Op interface so
// batch plans plug into Collect and the row-based tooling. Each batch is
// boxed into rows once, from its vectors (one backing array per batch);
// Next then hands those rows out. Stats pass through to the underlying
// batch operator.
func RowsOf(op BatchOp) Op { return &rowsAdapter{op: op} }

type rowsAdapter struct {
	op   BatchOp
	rows []Row // the current batch, boxed
	pos  int
}

// Schema implements Op.
func (a *rowsAdapter) Schema() Schema { return a.op.Schema() }

// Next implements Op.
func (a *rowsAdapter) Next() (Row, bool, error) {
	for a.pos >= len(a.rows) {
		b, err := a.op.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, false, nil
		}
		b = b.Dense()
		a.rows, a.pos = appendRows(a.rows[:0], b.Cols, b.Len()), 0
	}
	a.pos++
	return a.rows[a.pos-1], true, nil
}

// Stats implements Op.
func (a *rowsAdapter) Stats() OpStats { return a.op.Stats() }
