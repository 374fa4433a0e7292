package kernels

// FilterScan returns the indices of elements satisfying pred — the
// selection primitive of every analytics engine. It is branchy on a CPU
// and branch-free on wide hardware, which is why its offload descriptor
// carries a selectivity hint.
func FilterScan(col []int64, pred func(int64) bool) []int32 {
	out := make([]int32, 0, len(col)/4)
	for i, v := range col {
		if pred(v) {
			out = append(out, int32(i))
		}
	}
	return out
}

// FilterRange is the specialized, vectorizable range filter lo <= v < hi.
func FilterRange(col []int64, lo, hi int64) []int32 {
	out := make([]int32, 0, len(col)/4)
	for i, v := range col {
		if v >= lo && v < hi {
			out = append(out, int32(i))
		}
	}
	return out
}

// FilterRangeIncl is the closed-interval variant lo <= v <= hi, used when
// a bound comes from a ">=" / "<=" predicate and the half-open encoding
// cannot represent the extreme (hi = MaxInt64).
func FilterRangeIncl(col []int64, lo, hi int64) []int32 {
	return AppendRangeIncl(make([]int32, 0, len(col)/4), col, lo, hi)
}

// AppendRangeIncl is FilterRangeIncl appending to sel, so a caller that
// filters batch after batch can reuse one selection buffer. It is the
// Int-literal case of the comparison kernels (expr.go) and branch-free
// like them: lo <= v <= hi is one unsigned compare of v-lo against hi-lo,
// and lo > hi selects nothing.
func AppendRangeIncl(sel []int32, col []int64, lo, hi int64) []int32 {
	if lo > hi {
		return sel
	}
	base := len(sel)
	sel = grow(sel, len(col))
	out, k, span := sel[base:], 0, uint64(hi-lo)
	for i, v := range col {
		out[k] = int32(i)
		k += b2i(uint64(v-lo) <= span)
	}
	return sel[:base+k]
}

// RefineRangeIncl intersects an existing selection with lo <= col[i] <= hi,
// the building block for conjunctions of range predicates.
func RefineRangeIncl(col []int64, sel []int32, lo, hi int64) []int32 {
	if lo > hi {
		return sel[:0]
	}
	k, span := 0, uint64(hi-lo)
	for _, i := range sel {
		v := col[i]
		sel[k] = i
		k += b2i(uint64(v-lo) <= span)
	}
	return sel[:k]
}

// Gather materializes col[idx] for each index — the companion primitive to
// a filter.
func Gather(col []int64, idx []int32) []int64 {
	out := make([]int64, len(idx))
	for i, j := range idx {
		out[i] = col[j]
	}
	return out
}

// GatherFloat64 is Gather for float64 columns.
func GatherFloat64(col []float64, idx []int32) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = col[j]
	}
	return out
}

// PrefixSum computes the inclusive prefix sum in place and returns the
// total — the core of stream compaction on parallel hardware.
func PrefixSum(xs []int64) int64 {
	var acc int64
	for i, x := range xs {
		acc += x
		xs[i] = acc
	}
	return acc
}

// SumInt64 reduces a column to its sum.
func SumInt64(col []int64) int64 {
	var acc int64
	for _, v := range col {
		acc += v
	}
	return acc
}

// MinMaxInt64 returns the extrema of a non-empty column.
func MinMaxInt64(col []int64) (min, max int64) {
	min, max = col[0], col[0]
	for _, v := range col[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Histogram counts values into buckets of equal width over [lo, hi);
// values outside the range are clamped into the edge buckets.
func Histogram(col []int64, lo, hi int64, buckets int) []int64 {
	if buckets <= 0 || hi <= lo {
		panic("kernels: invalid histogram spec")
	}
	out := make([]int64, buckets)
	width := float64(hi-lo) / float64(buckets)
	for _, v := range col {
		b := int(float64(v-lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= buckets {
			b = buckets - 1
		}
		out[b]++
	}
	return out
}
