package kernels

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Each expression kernel against the obvious loop, failure modes first:
// the empty range, MinInt64/MaxInt64 bounds, empty input and selections,
// then NaN, ±Inf and ±0.

// naiveSel is the reference selection: the rows of sel (every row of n
// when nil) where keep holds.
func naiveSel(n int, sel []int32, keep func(i int) bool) []int32 {
	out := []int32{}
	if sel == nil {
		sel = AppendIota(nil, n)
	}
	for _, i := range sel {
		if keep(int(i)) {
			out = append(out, i)
		}
	}
	return out
}

// testSels is the selections each Refine form is checked over: none,
// all, every other row and the last row only.
func testSels(n int) [][]int32 {
	every := []int32{}
	for i := 0; i < n; i += 2 {
		every = append(every, int32(i))
	}
	last := []int32{}
	if n > 0 {
		last = append(last, int32(n-1))
	}
	return [][]int32{{}, AppendIota(nil, n), every, last}
}

func sameSel(a, b []int32) bool { return len(a) == len(b) && (len(a) == 0 || slices.Equal(a, b)) }

func TestRangeInclEmptyAndExtremes(t *testing.T) {
	col := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for _, c := range []struct{ lo, hi int64 }{
		{1, 0}, // the empty range an out-of-range literal compiles to
		{math.MaxInt64, math.MinInt64},
		{math.MinInt64, math.MaxInt64},
		{math.MinInt64, math.MinInt64},
		{math.MaxInt64, math.MaxInt64},
		{math.MinInt64, -1},
		{0, math.MaxInt64},
		{-1, 1},
	} {
		for _, data := range [][]int64{nil, col} {
			want := naiveSel(len(data), nil, func(i int) bool { return data[i] >= c.lo && data[i] <= c.hi })
			if got := AppendRangeIncl(nil, data, c.lo, c.hi); !sameSel(got, want) {
				t.Fatalf("AppendRangeIncl [%d, %d] = %v, want %v", c.lo, c.hi, got, want)
			}
			for _, sel := range testSels(len(data)) {
				want := naiveSel(len(data), sel, func(i int) bool { return data[i] >= c.lo && data[i] <= c.hi })
				if got := RefineRangeIncl(data, slices.Clone(sel), c.lo, c.hi); !sameSel(got, want) {
					t.Fatalf("RefineRangeIncl [%d, %d] over %v = %v, want %v", c.lo, c.hi, sel, got, want)
				}
			}
		}
	}
}

// cmpTest is the kernel test op on a and b, negated when neg.
func cmpTest[T int64 | float64 | string](op CmpOp, neg bool, a, b T) bool {
	var r bool
	switch op {
	case EQ:
		r = a == b
	case LT:
		r = a < b
	case GT:
		r = a > b
	case LTGT:
		r = a < b || a > b
	}
	return r != neg
}

func checkCmpKernels[T int64 | float64 | string](t *testing.T, l, r []T) {
	t.Helper()
	for _, op := range []CmpOp{EQ, LT, GT, LTGT} {
		for _, neg := range []bool{false, true} {
			for _, c := range r {
				want := naiveSel(len(l), nil, func(i int) bool { return cmpTest(op, neg, l[i], c) })
				if got := AppendCmpConst(nil, l, op, neg, c); !sameSel(got, want) {
					t.Fatalf("AppendCmpConst(op %d, neg %v, %v) = %v, want %v", op, neg, c, got, want)
				}
				for _, sel := range testSels(len(l)) {
					want := naiveSel(len(l), sel, func(i int) bool { return cmpTest(op, neg, l[i], c) })
					if got := RefineCmpConst(l, slices.Clone(sel), op, neg, c); !sameSel(got, want) {
						t.Fatalf("RefineCmpConst(op %d, neg %v, %v) over %v = %v, want %v", op, neg, c, sel, got, want)
					}
				}
			}
			for _, sel := range testSels(len(l)) {
				want := naiveSel(len(l), sel, func(i int) bool { return cmpTest(op, neg, l[i], r[i]) })
				if got := RefineCmp(l, r, slices.Clone(sel), op, neg); !sameSel(got, want) {
					t.Fatalf("RefineCmp(op %d, neg %v) over %v = %v, want %v", op, neg, sel, got, want)
				}
			}
		}
	}
}

func TestCmpKernelsMatchNaive(t *testing.T) {
	checkCmpKernels(t, []int64{}, []int64{})
	checkCmpKernels(t,
		[]int64{math.MinInt64, -1, 0, 1, math.MaxInt64, 7, 7, -7},
		[]int64{0, -1, math.MinInt64, 2, math.MaxInt64, 7, 8, math.MaxInt64})
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	checkCmpKernels(t,
		[]float64{nan, inf, -inf, 0, negZero, 1.5, nan, -2.5},
		[]float64{0, nan, -inf, negZero, 0, inf, nan, 1.5})
	checkCmpKernels(t,
		[]string{"", "EU", "eu", "ä", "EU", "a", "", "z"},
		[]string{"EU", "", "EU", "a", "EU", "ä", "", "y"})
}

func TestLookupKernels(t *testing.T) {
	codes := []int32{0, 2, 1, 2, 0, 3, 3, 1}
	match := []bool{false, true, true, false}
	for _, sel := range testSels(len(codes)) {
		want := naiveSel(len(codes), sel, func(i int) bool { return match[codes[i]] })
		if got := RefineLookup(codes, slices.Clone(sel), match); !sameSel(got, want) {
			t.Fatalf("RefineLookup over %v = %v, want %v", sel, got, want)
		}
	}
}

func TestSetKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 1024} {
		for _, sel := range testSels(n) {
			var a, b, sub []int32
			for _, r := range sel {
				switch rng.Intn(3) {
				case 0:
					a = append(a, r)
				case 1:
					b = append(b, r)
				}
				if rng.Intn(2) == 0 {
					sub = append(sub, r)
				}
			}
			merged := append(append([]int32{}, a...), b...)
			slices.Sort(merged)
			if got := UnionSorted(nil, a, b); !sameSel(got, merged) {
				t.Fatalf("UnionSorted(%v, %v) = %v", a, b, got)
			}
			want := naiveSel(n, sel, func(i int) bool { return !slices.Contains(sub, int32(i)) })
			mark := make([]bool, n)
			if got := DiffSorted(nil, sel, sub, mark); !sameSel(got, want) {
				t.Fatalf("DiffSorted(%v, %v) = %v, want %v", sel, sub, got, want)
			}
			if got := DiffSorted(slices.Clone(sel)[:0], slices.Clone(sel), sub, mark); !sameSel(got, want) {
				t.Fatalf("DiffSorted in place (%v, %v) = %v, want %v", sel, sub, got, want)
			}
			if slices.Contains(mark, true) {
				t.Fatal("DiffSorted left marks set")
			}
		}
	}
}

func TestArithKernelsMatchNaive(t *testing.T) {
	l := []int64{math.MinInt64, math.MaxInt64, 0, -1, 7, -7, 100, math.MinInt64}
	r := []int64{-1, 2, 0, 0, 3, 3, -9, 1}
	intOp := func(op ArithOp, a, b int64) int64 {
		switch op {
		case Add:
			return a + b
		case Sub:
			return a - b
		case Mul:
			return a * b
		}
		if b == 0 {
			return 0
		}
		return a % b
	}
	for _, op := range []ArithOp{Add, Sub, Mul, Mod} {
		out := make([]int64, len(l))
		ArithInt64(op, out, l, r)
		for i := range out {
			if r[i] != 0 && out[i] != intOp(op, l[i], r[i]) {
				t.Fatalf("ArithInt64(%d)[%d] = %d, want %d", op, i, out[i], intOp(op, l[i], r[i]))
			}
		}
		for _, c := range []int64{0, -1, 3, math.MinInt64} {
			ArithInt64Const(op, out, l, c, false)
			for i := range out {
				if c != 0 && out[i] != intOp(op, l[i], c) {
					t.Fatalf("ArithInt64Const(%d, x op %d)[%d] = %d", op, c, i, out[i])
				}
			}
			ArithInt64Const(op, out, r, c, true)
			for i := range out {
				if r[i] != 0 && out[i] != intOp(op, c, r[i]) {
					t.Fatalf("ArithInt64Const(%d, %d op x)[%d] = %d", op, c, i, out[i])
				}
			}
		}
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	fl := []float64{nan, inf, -inf, 0, negZero, 1.5, 1e308, -2.5}
	fr := []float64{1, -inf, inf, negZero, 0, 3, 10, nan}
	floatOp := func(op ArithOp, a, b float64) float64 {
		switch op {
		case Add:
			return a + b
		case Sub:
			return a - b
		case Mul:
			return a * b
		}
		return a / b
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, op := range []ArithOp{Add, Sub, Mul, Div} {
		out := make([]float64, len(fl))
		ArithFloat64(op, out, fl, fr)
		for i := range out {
			if !same(out[i], floatOp(op, fl[i], fr[i])) {
				t.Fatalf("ArithFloat64(%d)[%d] = %v, want %v", op, i, out[i], floatOp(op, fl[i], fr[i]))
			}
		}
		for _, c := range []float64{0, negZero, 2.5, inf} {
			ArithFloat64Const(op, out, fl, c, false)
			for i := range out {
				if !same(out[i], floatOp(op, fl[i], c)) {
					t.Fatalf("ArithFloat64Const(%d, x op %v)[%d] = %v", op, c, i, out[i])
				}
			}
			ArithFloat64Const(op, out, fl, c, true)
			for i := range out {
				if !same(out[i], floatOp(op, c, fl[i])) {
					t.Fatalf("ArithFloat64Const(%d, %v op x)[%d] = %v", op, c, i, out[i])
				}
			}
		}
	}
	if FirstZero(fr, nil) != 3 || FirstZero(fr, []int32{4, 5}) != 4 || FirstZero(r, []int32{0, 1}) != -1 || FirstZero([]int64{}, nil) != -1 {
		t.Fatal("FirstZero must find the first zero (−0 included) among the selected rows")
	}
}
