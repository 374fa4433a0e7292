package kernels

import "cmp"

// The expression primitives: comparisons that produce or narrow a
// selection vector, set operations on selections, and typed arithmetic.
// A selection is an ascending []int32 of row indices. Every selection
// kernel is branch-free: it writes the candidate index unconditionally
// and advances its cursor by the predicate's 0/1, so its time does not
// depend on how many rows pass or in what pattern. The Append forms test
// every element of a column and append the passing indices to sel; the
// Refine forms test only the rows a selection names and narrow it in
// place.

// b2i is the 0/1 value of b; the compiler lowers it to a flag set, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// grow extends sel's length by n (reallocating if needed) and returns the
// longer slice; the caller overwrites the new tail.
func grow(sel []int32, n int) []int32 {
	if need := len(sel) + n; need > cap(sel) {
		out := make([]int32, need, max(need, 2*cap(sel)))
		copy(out, sel)
		return out
	}
	return sel[:len(sel)+n]
}

// CmpOp is the test a comparison kernel applies to a pair of values; the
// kernels' neg argument keeps the rows where the test fails instead.
type CmpOp uint8

const (
	EQ   CmpOp = iota // a == b
	LT                // a < b
	GT                // a > b
	LTGT              // a < b || a > b: inequality where NaN ties with every value
)

// AppendCmpConst appends to sel the index of every element v of col for
// which (v op c) != neg.
func AppendCmpConst[T cmp.Ordered](sel []int32, col []T, op CmpOp, neg bool, c T) []int32 {
	base := len(sel)
	sel = grow(sel, len(col))
	out, k, flip := sel[base:], 0, b2i(neg)
	switch op {
	case EQ:
		for i, v := range col {
			out[k] = int32(i)
			k += b2i(v == c) ^ flip
		}
	case LT:
		for i, v := range col {
			out[k] = int32(i)
			k += b2i(v < c) ^ flip
		}
	case GT:
		for i, v := range col {
			out[k] = int32(i)
			k += b2i(v > c) ^ flip
		}
	case LTGT:
		for i, v := range col {
			out[k] = int32(i)
			k += (b2i(v < c) | b2i(v > c)) ^ flip
		}
	}
	return sel[:base+k]
}

// RefineCmpConst narrows sel in place to the rows i with (col[i] op c) !=
// neg.
func RefineCmpConst[T cmp.Ordered](col []T, sel []int32, op CmpOp, neg bool, c T) []int32 {
	k, flip := 0, b2i(neg)
	switch op {
	case EQ:
		for _, i := range sel {
			v := col[i]
			sel[k] = i
			k += b2i(v == c) ^ flip
		}
	case LT:
		for _, i := range sel {
			v := col[i]
			sel[k] = i
			k += b2i(v < c) ^ flip
		}
	case GT:
		for _, i := range sel {
			v := col[i]
			sel[k] = i
			k += b2i(v > c) ^ flip
		}
	case LTGT:
		for _, i := range sel {
			v := col[i]
			sel[k] = i
			k += (b2i(v < c) | b2i(v > c)) ^ flip
		}
	}
	return sel[:k]
}

// RefineCmp narrows sel in place to the rows i with (l[i] op r[i]) != neg.
func RefineCmp[T cmp.Ordered](l, r []T, sel []int32, op CmpOp, neg bool) []int32 {
	k, flip := 0, b2i(neg)
	switch op {
	case EQ:
		for _, i := range sel {
			a, b := l[i], r[i]
			sel[k] = i
			k += b2i(a == b) ^ flip
		}
	case LT:
		for _, i := range sel {
			a, b := l[i], r[i]
			sel[k] = i
			k += b2i(a < b) ^ flip
		}
	case GT:
		for _, i := range sel {
			a, b := l[i], r[i]
			sel[k] = i
			k += b2i(a > b) ^ flip
		}
	case LTGT:
		for _, i := range sel {
			a, b := l[i], r[i]
			sel[k] = i
			k += (b2i(a < b) | b2i(a > b)) ^ flip
		}
	}
	return sel[:k]
}

// RefineLookup narrows sel in place to the rows whose code has match set:
// a comparison of a dictionary-coded column, decided once per dictionary
// entry.
func RefineLookup(codes []int32, sel []int32, match []bool) []int32 {
	k := 0
	for _, i := range sel {
		c := codes[i]
		sel[k] = i
		k += b2i(match[c])
	}
	return sel[:k]
}

// AppendIota appends 0, 1, …, n-1 to dst: the selection of every row.
func AppendIota(dst []int32, n int) []int32 {
	base := len(dst)
	dst = grow(dst, n)
	for i := range dst[base:] {
		dst[base+i] = int32(i)
	}
	return dst
}

// UnionSorted appends to dst the merge of a and b, two disjoint ascending
// selections. dst may share a backing array with neither.
func UnionSorted(dst, a, b []int32) []int32 {
	base := len(dst)
	dst = grow(dst, len(a)+len(b))
	out, i, j, k := dst[base:], 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		t := b2i(x < y)
		out[k] = y + (x-y)*int32(t)
		i += t
		j += 1 - t
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
	return dst
}

// DiffSorted appends to dst the rows of the ascending sel that sub does
// not hold. mark is scratch indexed by row: at least as long as the
// largest row, all false on entry, and left all false. dst may be
// sel[:0].
func DiffSorted(dst, sel, sub []int32, mark []bool) []int32 {
	for _, r := range sub {
		mark[r] = true
	}
	base := len(dst)
	dst = grow(dst, len(sel))
	out, k := dst[base:], 0
	for _, r := range sel {
		out[k] = r
		k += 1 - b2i(mark[r])
	}
	for _, r := range sub {
		mark[r] = false
	}
	return dst[:base+k]
}

// ArithOp is an arithmetic kernel's operator.
type ArithOp uint8

const (
	Add ArithOp = iota
	Sub
	Mul
	Div // Float only
	Mod // Int only
)

// nonZero is d, or 1 when d is 0: a divisor that cannot trap. A row
// divided by zero gets a meaningless value; the caller reports it as an
// error (FirstZero) and never reads the value.
func nonZero(d int64) int64 { return d + int64(b2i(d == 0)) }

// ArithInt64 sets out[i] = l[i] op r[i] for op Add, Sub, Mul or Mod, with
// Go's wrapping int64 arithmetic.
func ArithInt64(op ArithOp, out, l, r []int64) {
	l, r = l[:len(out)], r[:len(out)]
	switch op {
	case Add:
		for i := range out {
			out[i] = l[i] + r[i]
		}
	case Sub:
		for i := range out {
			out[i] = l[i] - r[i]
		}
	case Mul:
		for i := range out {
			out[i] = l[i] * r[i]
		}
	case Mod:
		for i := range out {
			out[i] = l[i] % nonZero(r[i])
		}
	}
}

// ArithInt64Const sets out[i] = x[i] op c, or c op x[i] when constLeft.
func ArithInt64Const(op ArithOp, out, x []int64, c int64, constLeft bool) {
	x = x[:len(out)]
	switch {
	case op == Add:
		for i := range out {
			out[i] = x[i] + c
		}
	case op == Mul:
		for i := range out {
			out[i] = x[i] * c
		}
	case op == Sub && constLeft:
		for i := range out {
			out[i] = c - x[i]
		}
	case op == Sub:
		for i := range out {
			out[i] = x[i] - c
		}
	case op == Mod && constLeft:
		for i := range out {
			out[i] = c % nonZero(x[i])
		}
	case op == Mod:
		c = nonZero(c)
		for i := range out {
			out[i] = x[i] % c
		}
	}
}

// ArithFloat64 sets out[i] = l[i] op r[i] for op Add, Sub, Mul or Div.
// Each result passes through an explicit float64 conversion, so it is
// rounded on its own and never fused with a neighbouring operation.
func ArithFloat64(op ArithOp, out, l, r []float64) {
	l, r = l[:len(out)], r[:len(out)]
	switch op {
	case Add:
		for i := range out {
			out[i] = float64(l[i] + r[i])
		}
	case Sub:
		for i := range out {
			out[i] = float64(l[i] - r[i])
		}
	case Mul:
		for i := range out {
			out[i] = float64(l[i] * r[i])
		}
	case Div:
		for i := range out {
			out[i] = float64(l[i] / r[i])
		}
	}
}

// ArithFloat64Const sets out[i] = x[i] op c, or c op x[i] when constLeft.
func ArithFloat64Const(op ArithOp, out, x []float64, c float64, constLeft bool) {
	x = x[:len(out)]
	switch {
	case op == Add:
		for i := range out {
			out[i] = float64(x[i] + c)
		}
	case op == Mul:
		for i := range out {
			out[i] = float64(x[i] * c)
		}
	case op == Sub && constLeft:
		for i := range out {
			out[i] = float64(c - x[i])
		}
	case op == Sub:
		for i := range out {
			out[i] = float64(x[i] - c)
		}
	case op == Div && constLeft:
		for i := range out {
			out[i] = float64(c / x[i])
		}
	case op == Div:
		for i := range out {
			out[i] = float64(x[i] / c)
		}
	}
}

// NegInt64 sets out[i] = -x[i] (wrapping at MinInt64).
func NegInt64(out, x []int64) {
	x = x[:len(out)]
	for i := range out {
		out[i] = -x[i]
	}
}

// NegFloat64 sets out[i] = -x[i].
func NegFloat64(out, x []float64) {
	x = x[:len(out)]
	for i := range out {
		out[i] = -x[i]
	}
}

// Int64ToFloat64 sets out[i] = float64(x[i]).
func Int64ToFloat64(out []float64, x []int64) {
	x = x[:len(out)]
	for i := range out {
		out[i] = float64(x[i])
	}
}

// FirstZero returns the first row of sel (every row of col when sel is
// nil) whose value is zero — -0.0 included — or -1.
func FirstZero[T int64 | float64](col []T, sel []int32) int {
	if sel == nil {
		for i, v := range col {
			if v == 0 {
				return i
			}
		}
		return -1
	}
	for _, i := range sel {
		if col[i] == 0 {
			return int(i)
		}
	}
	return -1
}
