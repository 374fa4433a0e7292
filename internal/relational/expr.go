package relational

import (
	"errors"
	"math"
	"strings"

	"repro/internal/kernels"
)

// Typed column programs: the batch engine's one form of an expression.
// The SQL planner compiles every filter, projection, sort key, group key
// and aggregate argument once, at plan time, into a tree of VecExpr
// (values) and VecPred (predicates). A program runs one typed kernel per
// node over a batch's column vectors: arithmetic writes a whole column per
// operator, a comparison produces or narrows an ascending selection of row
// indices, AND narrows, OR unions two disjoint selections and NOT
// complements. No row is boxed and no closure runs per cell.
//
// A program computes what the row closure computes (sql's compiled.eval,
// the row oracle), bit for bit, and fails where it fails: with the error
// of the first row, in row order, whose evaluation fails, and in that row
// with the error the closure's left-to-right, short-circuit order meets
// first. Value nodes compute every row of the batch, so a row divided by
// zero gets a meaningless value; only the rows the closure would evaluate
// there — the node's sel — are checked, and a failure outranks every value
// computed at or after its row.

// Errors of arithmetic programs and of the SQL row closure alike.
var (
	ErrDivisionByZero = errors.New("relational: division by zero")
	ErrModuloByZero   = errors.New("relational: modulo by zero")
)

// CmpOp is a SQL comparison operator.
type CmpOp uint8

const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// flip is the operator that compares the operands swapped: a op b ≡ b
// op.flip() a.
func (op CmpOp) flip() CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// Holds reports whether op accepts a Compare result c.
func (op CmpOp) Holds(c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// kernel maps op to a kernel test and its negation. ties selects
// Compare's Float semantics, where NaN ties with every value: = is "not
// < and not >", so NaN equals everything and differs from nothing.
func (op CmpOp) kernel(ties bool) (kernels.CmpOp, bool) {
	switch op {
	case OpEq:
		if ties {
			return kernels.LTGT, true
		}
		return kernels.EQ, false
	case OpNe:
		if ties {
			return kernels.LTGT, false
		}
		return kernels.EQ, true
	case OpLt:
		return kernels.LT, false
	case OpGe:
		return kernels.LT, true
	case OpGt:
		return kernels.GT, false
	default: // OpLe
		return kernels.GT, true
	}
}

// ArithOp is an arithmetic operator: Add, Sub, Mul, Div (Float result)
// or Mod (Int operands).
type ArithOp = kernels.ArithOp

// rowFail is the first failure of a program over a batch: the row and
// its error, or no error.
type rowFail struct {
	row int
	err error
}

// then merges a failure met after f in evaluation order: the earlier row
// wins, and on one row f, met first, does.
func (f rowFail) then(g rowFail) rowFail {
	if g.err != nil && (f.err == nil || g.row < f.row) {
		return g
	}
	return f
}

// exprCtx is one operator instance's scratch: selection and value
// buffers reused batch after batch. It is never shared between
// goroutines; the programs are.
type exprCtx struct {
	sels   [][]int32
	ints   [][]int64
	floats [][]float64
	iotas  []int32
	marks  []bool      // DiffSorted's scratch, all false between calls
	dicts  []dictMatch // each strConst's literal in the last Dict it met
}

// sel returns an empty selection buffer with room for n rows.
func (c *exprCtx) sel(n int) []int32 {
	if k := len(c.sels) - 1; k >= 0 {
		s := c.sels[k]
		c.sels = c.sels[:k]
		if cap(s) >= n {
			return s[:0]
		}
	}
	return make([]int32, 0, max(n, BatchSize))
}

// putSel returns a selection buffer.
func (c *exprCtx) putSel(s []int32) {
	if s != nil {
		c.sels = append(c.sels, s)
	}
}

// iota returns the read-only selection 0, 1, …, n-1.
func (c *exprCtx) iota(n int) []int32 {
	if len(c.iotas) < n {
		c.iotas = kernels.AppendIota(make([]int32, 0, max(n, BatchSize)), max(n, BatchSize))
	}
	return c.iotas[:n]
}

// mark returns DiffSorted's scratch for rows below n.
func (c *exprCtx) mark(n int) []bool {
	if len(c.marks) < n {
		c.marks = make([]bool, max(n, BatchSize))
	}
	return c.marks
}

// copySel returns a ctx buffer holding sel.
func (c *exprCtx) copySel(sel []int32) []int32 { return append(c.sel(len(sel)), sel...) }

// int64s and float64s return a value buffer of length n: a released one
// when it is large enough, else a new one sized exactly, since a
// projection keeps the buffer it computes into as its output column.
func (c *exprCtx) int64s(n int) []int64     { return take(&c.ints, n) }
func (c *exprCtx) float64s(n int) []float64 { return take(&c.floats, n) }

func take[T any](pool *[][]T, n int) []T {
	if k := len(*pool) - 1; k >= 0 {
		s := (*pool)[k]
		*pool = (*pool)[:k]
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n)
}

// release returns an owned value's buffers.
func (c *exprCtx) release(v Vector) {
	if v.Ints != nil {
		c.ints = append(c.ints, v.Ints)
	}
	if v.Floats != nil {
		c.floats = append(c.floats, v.Floats)
	}
}

// VecExpr is a compiled value program: it computes one typed column for a
// whole batch.
type VecExpr interface {
	// Type is the column type the program produces.
	Type() Type
	// eval computes every row of b's vectors, a selected batch's
	// rejected rows included. sel names the rows whose failures count
	// (nil: all of them).
	eval(c *exprCtx, b *Batch, sel []int32) (Vector, rowFail)
	// owned reports whether eval's vector is ctx scratch, which the
	// caller releases once read or keeps as its output; otherwise it is
	// one of b's columns, shared.
	owned() bool
}

// VecPred is a compiled predicate program.
type VecPred interface {
	// narrow returns the rows of sel that pass, ascending: in a fresh ctx
	// buffer when sel is nil (every row of b's vectors, b.Sel ignored),
	// else in place in sel.
	narrow(c *exprCtx, b *Batch, sel []int32) ([]int32, rowFail)
}

// colExpr reads a column of the batch.
type colExpr struct {
	idx int
	t   Type
}

// ColumnExpr is the program reading column idx, of type t.
func ColumnExpr(idx int, t Type) VecExpr { return colExpr{idx: idx, t: t} }

func (e colExpr) Type() Type  { return e.t }
func (e colExpr) owned() bool { return false }
func (e colExpr) eval(_ *exprCtx, b *Batch, _ []int32) (Vector, rowFail) {
	return b.Cols[e.idx], rowFail{}
}

// constExpr is a literal.
type constExpr struct{ v Value }

// Const is the program producing v on every row.
func Const(v Value) VecExpr { return constExpr{v: v} }

func (e constExpr) Type() Type  { return e.v.T }
func (e constExpr) owned() bool { return true }
func (e constExpr) eval(c *exprCtx, b *Batch, _ []int32) (Vector, rowFail) {
	n := b.n
	out := Vector{T: e.v.T}
	switch e.v.T {
	case Int:
		out.Ints = c.int64s(n)
		for i := range out.Ints {
			out.Ints[i] = e.v.I
		}
	case Float:
		out.Floats = c.float64s(n)
		for i := range out.Floats {
			out.Floats[i] = e.v.F
		}
	default:
		out.Strs = make([]string, n)
		for i := range out.Strs {
			out.Strs[i] = e.v.S
		}
	}
	return out, rowFail{}
}

// asFloat is e read as Float: an Int program passes through float64(x),
// as Value.AsFloat converts.
func asFloat(e VecExpr) VecExpr {
	switch x := e.(type) {
	case constExpr:
		if x.v.T == Int {
			return constExpr{v: FloatV(float64(x.v.I))}
		}
	default:
		if e.Type() == Int {
			return toFloat{x: e}
		}
	}
	return e
}

type toFloat struct{ x VecExpr }

func (e toFloat) Type() Type  { return Float }
func (e toFloat) owned() bool { return true }
func (e toFloat) eval(c *exprCtx, b *Batch, sel []int32) (Vector, rowFail) {
	v, f := e.x.eval(c, b, sel)
	out := Vector{T: Float, Floats: c.float64s(b.n)}
	kernels.Int64ToFloat64(out.Floats, v.Ints)
	if e.x.owned() {
		c.release(v)
	}
	return out, f
}

// negExpr is unary minus.
type negExpr struct{ x VecExpr }

// Neg is the program computing -e (Int wraps at MinInt64).
func Neg(e VecExpr) VecExpr {
	if x, ok := e.(constExpr); ok {
		if x.v.T == Int {
			return constExpr{v: IntV(-x.v.I)}
		}
		return constExpr{v: FloatV(-x.v.F)}
	}
	return negExpr{x: e}
}

func (e negExpr) Type() Type  { return e.x.Type() }
func (e negExpr) owned() bool { return true }
func (e negExpr) eval(c *exprCtx, b *Batch, sel []int32) (Vector, rowFail) {
	v, f := e.x.eval(c, b, sel)
	out := Vector{T: v.T}
	if v.T == Int {
		out.Ints = c.int64s(b.n)
		kernels.NegInt64(out.Ints, v.Ints)
	} else {
		out.Floats = c.float64s(b.n)
		kernels.NegFloat64(out.Floats, v.Floats)
	}
	if e.x.owned() {
		c.release(v)
	}
	return out, f
}

// arithExpr is a binary arithmetic operator; lc or rc holds a literal
// operand the kernel reads as a scalar.
type arithExpr struct {
	op     ArithOp
	t      Type
	l, r   VecExpr
	lc, rc *Value
}

// Arith is the program computing l op r with the SQL row closure's
// typing: Int op Int stays Int except for Div; any other pair computes in
// float64. Mod takes Int operands.
func Arith(op ArithOp, l, r VecExpr) VecExpr {
	t := Float
	if op != kernels.Div && l.Type() == Int && r.Type() == Int {
		t = Int
	}
	if t == Float {
		l, r = asFloat(l), asFloat(r)
	}
	lc, lok := l.(constExpr)
	rc, rok := r.(constExpr)
	if lok && rok {
		if v, ok := foldArith(op, lc.v, rc.v); ok {
			return constExpr{v: v}
		}
		// A literal divisor of zero fails at run time, on the first row
		// evaluated: compute the dividend as a column.
		return &arithExpr{op: op, t: t, l: l, r: r, rc: &rc.v}
	}
	e := &arithExpr{op: op, t: t, l: l, r: r}
	if lok {
		e.lc = &lc.v
	}
	if rok {
		e.rc = &rc.v
	}
	return e
}

// foldArith computes a literal operation the way the kernels do, unless
// it divides by zero.
func foldArith(op ArithOp, a, b Value) (Value, bool) {
	if a.T == Int {
		if op == kernels.Mod && b.I == 0 {
			return Value{}, false
		}
		out := []int64{0}
		kernels.ArithInt64(op, out, []int64{a.I}, []int64{b.I})
		return IntV(out[0]), true
	}
	if op == kernels.Div && b.F == 0 {
		return Value{}, false
	}
	out := []float64{0}
	kernels.ArithFloat64(op, out, []float64{a.F}, []float64{b.F})
	return FloatV(out[0]), true
}

func (e *arithExpr) Type() Type  { return e.t }
func (e *arithExpr) owned() bool { return true }
func (e *arithExpr) eval(c *exprCtx, b *Batch, sel []int32) (Vector, rowFail) {
	n := b.n
	var lv, rv Vector
	var fail rowFail
	if e.lc == nil {
		lv, fail = e.l.eval(c, b, sel)
	}
	if e.rc == nil {
		var f rowFail
		rv, f = e.r.eval(c, b, sel)
		fail = fail.then(f)
	}
	out := Vector{T: e.t}
	if e.t == Int {
		out.Ints = c.int64s(n)
		switch {
		case e.lc != nil:
			kernels.ArithInt64Const(e.op, out.Ints, rv.Ints, e.lc.I, true)
		case e.rc != nil:
			kernels.ArithInt64Const(e.op, out.Ints, lv.Ints, e.rc.I, false)
		default:
			kernels.ArithInt64(e.op, out.Ints, lv.Ints, rv.Ints)
		}
		if e.op == kernels.Mod {
			fail = fail.then(zeroDivisor(rv.Ints, e.rc, sel, n, ErrModuloByZero))
		}
	} else {
		out.Floats = c.float64s(n)
		switch {
		case e.lc != nil:
			kernels.ArithFloat64Const(e.op, out.Floats, rv.Floats, e.lc.F, true)
		case e.rc != nil:
			kernels.ArithFloat64Const(e.op, out.Floats, lv.Floats, e.rc.F, false)
		default:
			kernels.ArithFloat64(e.op, out.Floats, lv.Floats, rv.Floats)
		}
		if e.op == kernels.Div {
			fail = fail.then(zeroDivisor(rv.Floats, e.rc, sel, n, ErrDivisionByZero))
		}
	}
	if e.lc == nil && e.l.owned() {
		c.release(lv)
	}
	if e.rc == nil && e.r.owned() {
		c.release(rv)
	}
	return out, fail
}

// zeroDivisor reports the first row of sel (every row of n when nil)
// whose divisor — the column vals, or the literal lit — is zero.
func zeroDivisor[T int64 | float64](vals []T, lit *Value, sel []int32, n int, err error) rowFail {
	row := -1
	switch {
	case lit == nil:
		row = kernels.FirstZero(vals, sel)
	case lit.I != 0 || lit.F != 0: // a literal's other field is 0
	case sel == nil && n > 0:
		row = 0
	case len(sel) > 0:
		row = int(sel[0])
	}
	if row < 0 {
		return rowFail{}
	}
	return rowFail{row: row, err: err}
}

// predValue is a predicate read as an Int column of 0s and 1s.
type predValue struct{ p VecPred }

// PredValue is the program producing 1 where p holds and 0 elsewhere.
func PredValue(p VecPred) VecExpr { return predValue{p: p} }

func (e predValue) Type() Type  { return Int }
func (e predValue) owned() bool { return true }
func (e predValue) eval(c *exprCtx, b *Batch, sel []int32) (Vector, rowFail) {
	if sel != nil {
		sel = c.copySel(sel)
	}
	pass, f := e.p.narrow(c, b, sel)
	out := Vector{T: Int, Ints: c.int64s(b.n)}
	clear(out.Ints)
	for _, r := range pass {
		out.Ints[r] = 1
	}
	c.putSel(pass)
	return out, f
}

// selectAll is the selection of every row of sel (all of b when nil),
// following narrow's buffer rule.
func selectAll(c *exprCtx, b *Batch, sel []int32) []int32 {
	if sel == nil {
		return append(c.sel(b.n), c.iota(b.n)...)
	}
	return sel
}

// selectNone is the empty selection, following narrow's buffer rule.
func selectNone(c *exprCtx, sel []int32) []int32 {
	if sel == nil {
		return c.sel(0)
	}
	return sel[:0]
}

// constPred is a predicate with no column operand.
type constPred bool

func (p constPred) narrow(c *exprCtx, b *Batch, sel []int32) ([]int32, rowFail) {
	if p {
		return selectAll(c, b, sel), rowFail{}
	}
	return selectNone(c, sel), rowFail{}
}

// ColRange is the inclusive range test lo <= col <= hi of an Int column,
// as NewBatchFilter takes it from a hand-built operator tree. An unset
// bound is open.
type ColRange struct {
	Col   int
	Lo    int64
	Hi    int64
	HasLo bool
	HasHi bool
}

func (cr ColRange) bounds() (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if cr.HasLo {
		lo = cr.Lo
	}
	if cr.HasHi {
		hi = cr.Hi
	}
	return lo, hi
}

// narrow runs the branch-free range kernels; lo > hi selects nothing.
func (cr ColRange) narrow(c *exprCtx, b *Batch, sel []int32) ([]int32, rowFail) {
	lo, hi := cr.bounds()
	col := b.Cols[cr.Col].Ints
	if sel == nil {
		return kernels.AppendRangeIncl(c.sel(len(col)), col, lo, hi), rowFail{}
	}
	return kernels.RefineRangeIncl(col, sel, lo, hi), rowFail{}
}

// typedVals is a vector's payload of element type T.
func typedVals[T int64 | float64 | string](v *Vector) []T {
	switch p := any(&v.Ints).(type) {
	case *[]T:
		return *p
	}
	switch p := any(&v.Floats).(type) {
	case *[]T:
		return *p
	}
	return any(v.Strs).([]T)
}

// cmpConst compares a value with a literal.
type cmpConst[T int64 | float64 | string] struct {
	x   VecExpr
	op  kernels.CmpOp
	neg bool
	c   T
}

func (p *cmpConst[T]) narrow(c *exprCtx, b *Batch, sel []int32) ([]int32, rowFail) {
	v, f := p.x.eval(c, b, sel)
	var out []int32
	if vals := typedVals[T](&v); sel == nil {
		out = kernels.AppendCmpConst(c.sel(len(vals)), vals, p.op, p.neg, p.c)
	} else {
		out = kernels.RefineCmpConst(vals, sel, p.op, p.neg, p.c)
	}
	if p.x.owned() {
		c.release(v)
	}
	return out, f
}

// strConst compares a String value with a literal. On a coded column it
// resolves the literal against the column's Dict (see exprCtx.match): =
// and != compare int32 codes, and an ordering operator reads a per-code
// table.
type strConst struct {
	x   VecExpr
	op  CmpOp
	kop kernels.CmpOp // the plain column's test
	neg bool
	lit string
}

// dictMatch is a strConst's literal resolved against one Dict.
type dictMatch struct {
	node  *strConst
	dict  *Dict
	code  int32  // the literal's code (= and !=), -1 when absent
	match []bool // per code, whether the entry passes (ordering ops)
}

// match returns p's literal resolved against d, resolving it again only
// when the Dict differs from the one p last met in this ctx.
func (c *exprCtx) match(p *strConst, d *Dict) dictMatch {
	i := 0
	for i < len(c.dicts) && c.dicts[i].node != p {
		i++
	}
	if i == len(c.dicts) {
		c.dicts = append(c.dicts, dictMatch{node: p})
	}
	m := &c.dicts[i]
	if m.dict == d {
		return *m
	}
	m.dict, m.code = d, -1
	if p.op == OpEq || p.op == OpNe {
		for k, s := range d.strs {
			if s == p.lit {
				m.code = int32(k)
				break
			}
		}
		return *m
	}
	if cap(m.match) < len(d.strs) {
		m.match = make([]bool, len(d.strs))
	}
	m.match = m.match[:len(d.strs)]
	for k, s := range d.strs {
		m.match[k] = p.op.Holds(strings.Compare(s, p.lit))
	}
	return *m
}

func (p *strConst) narrow(c *exprCtx, b *Batch, sel []int32) ([]int32, rowFail) {
	v, f := p.x.eval(c, b, sel)
	if v.Dict == nil {
		if sel == nil {
			return kernels.AppendCmpConst(c.sel(len(v.Strs)), v.Strs, p.kop, p.neg, p.lit), f
		}
		return kernels.RefineCmpConst(v.Strs, sel, p.kop, p.neg, p.lit), f
	}
	m := c.match(p, v.Dict)
	switch {
	case p.op != OpEq && p.op != OpNe:
		return kernels.RefineLookup(v.Codes, selectAll(c, b, sel), m.match), f
	case m.code < 0 && p.op == OpEq:
		return selectNone(c, sel), f
	case m.code < 0:
		return selectAll(c, b, sel), f
	case sel == nil:
		return kernels.AppendCmpConst(c.sel(len(v.Codes)), v.Codes, kernels.EQ, p.op == OpNe, m.code), f
	}
	return kernels.RefineCmpConst(v.Codes, sel, kernels.EQ, p.op == OpNe, m.code), f
}

// cmpVec compares two computed values of one type: Int, Float (an Int
// side converted) or String (decoded).
type cmpVec struct {
	l, r VecExpr
	t    Type
	op   kernels.CmpOp
	neg  bool
}

func (p *cmpVec) narrow(c *exprCtx, b *Batch, sel []int32) ([]int32, rowFail) {
	lv, f := p.l.eval(c, b, sel)
	rv, rf := p.r.eval(c, b, sel)
	f = f.then(rf)
	var out []int32
	switch p.t {
	case Int:
		out = kernels.RefineCmp(lv.Ints, rv.Ints, selectAll(c, b, sel), p.op, p.neg)
	case Float:
		out = kernels.RefineCmp(lv.Floats, rv.Floats, selectAll(c, b, sel), p.op, p.neg)
	default:
		out = kernels.RefineCmp(decoded(&lv), decoded(&rv), selectAll(c, b, sel), p.op, p.neg)
	}
	if p.l.owned() {
		c.release(lv)
	}
	if p.r.owned() {
		c.release(rv)
	}
	return out, f
}

// decoded is a String vector's cells as strings.
func decoded(v *Vector) []string {
	if v.Dict == nil {
		return v.Strs
	}
	out := make([]string, len(v.Codes))
	for i, code := range v.Codes {
		out[i] = v.Dict.strs[code]
	}
	return out
}

// Cmp is the program testing l op r with Compare's semantics: Int pairs
// compare exactly, a pair with a Float compares in float64 with NaN tying
// with every value, and Strings compare bytewise. Both operands are
// String or neither is.
func Cmp(op CmpOp, l, r VecExpr) VecPred {
	lc, lok := l.(constExpr)
	rc, rok := r.(constExpr)
	if lok && rok {
		c, _ := Compare(lc.v, rc.v)
		return constPred(op.Holds(c))
	}
	if lok {
		l, r, op, rc, rok = r, l, op.flip(), lc, true
	}
	lt, rt := l.Type(), r.Type()
	ties := lt == Float || rt == Float
	kop, neg := op.kernel(ties)
	switch {
	case rok && lt == String:
		return &strConst{x: l, op: op, kop: kop, neg: neg, lit: rc.v.S}
	case rok && !ties:
		return &cmpConst[int64]{x: l, op: kop, neg: neg, c: rc.v.I}
	case rok:
		return &cmpConst[float64]{x: asFloat(l), op: kop, neg: neg, c: asFloat(r).(constExpr).v.F}
	case lt == String:
		return &cmpVec{l: l, r: r, t: String, op: kop, neg: neg}
	case !ties:
		return &cmpVec{l: l, r: r, t: Int, op: kop, neg: neg}
	}
	return &cmpVec{l: asFloat(l), r: asFloat(r), t: Float, op: kop, neg: neg}
}

// NonZero is the predicate holding where the Int value e is not 0: a
// boolean read back from a column.
func NonZero(e VecExpr) VecPred {
	return &cmpConst[int64]{x: e, op: kernels.EQ, neg: true}
}

// andPred narrows through each conjunct in turn; a row stops at the first
// conjunct it fails, as the closure's short circuit does.
type andPred []VecPred

// And is the conjunction of ps (true when empty).
func And(ps ...VecPred) VecPred {
	var flat andPred
	for _, p := range ps {
		if a, ok := p.(andPred); ok {
			flat = append(flat, a...)
		} else if p != nil {
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return constPred(true)
	case 1:
		return flat[0]
	}
	return flat
}

func (a andPred) narrow(c *exprCtx, b *Batch, sel []int32) ([]int32, rowFail) {
	var fail rowFail
	for _, p := range a {
		var f rowFail
		sel, f = p.narrow(c, b, sel)
		fail = fail.then(f)
		if len(sel) == 0 {
			break
		}
	}
	return sel, fail
}

// orPred tests r only on the rows l rejects, as the closure's short
// circuit does, and unions the two disjoint selections.
type orPred struct{ l, r VecPred }

// Or is the disjunction of l and r.
func Or(l, r VecPred) VecPred { return orPred{l: l, r: r} }

func (p orPred) narrow(c *exprCtx, b *Batch, sel []int32) ([]int32, rowFail) {
	n := b.n
	var left []int32
	if sel != nil {
		left = c.copySel(sel)
	}
	left, fail := p.l.narrow(c, b, left)
	rest := c.sel(n)
	if sel == nil {
		rest = kernels.DiffSorted(rest, c.iota(n), left, c.mark(n))
	} else {
		rest = kernels.DiffSorted(rest, sel, left, c.mark(n))
	}
	if len(rest) > 0 {
		var f rowFail
		rest, f = p.r.narrow(c, b, rest)
		fail = fail.then(f)
	}
	var out []int32
	if sel == nil {
		out = c.sel(len(left) + len(rest))
	} else {
		out = sel[:0]
	}
	out = kernels.UnionSorted(out, left, rest)
	c.putSel(left)
	c.putSel(rest)
	return out, fail
}

// notPred complements its operand within sel.
type notPred struct{ p VecPred }

// Not is the negation of p.
func Not(p VecPred) VecPred { return notPred{p: p} }

func (p notPred) narrow(c *exprCtx, b *Batch, sel []int32) ([]int32, rowFail) {
	var in []int32
	if sel != nil {
		in = c.copySel(sel)
	}
	pass, fail := p.p.narrow(c, b, in)
	var out []int32
	if sel == nil {
		out = kernels.DiffSorted(c.sel(b.n), c.iota(b.n), pass, c.mark(b.n))
	} else {
		out = kernels.DiffSorted(sel[:0], sel, pass, c.mark(b.n))
	}
	c.putSel(pass)
	return out, fail
}
