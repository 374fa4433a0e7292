// Package kernels implements the "often-required functional building
// blocks in existing processing frameworks" that Recommendation 10
// proposes to identify and accelerate: sort, scan/filter, hash join,
// aggregation, top-k, histogram, k-means, PageRank, dense matrix multiply
// and substring search. Every block has a real, tested Go implementation
// (the functional reference) and a roofline descriptor (ops/bytes) so the
// hw device models can price the same block on CPU, GPU, FPGA or ASIC —
// which is exactly how the E5/E11 experiments quantify the
// "10× throughput per node" target of Recommendation 4.
package kernels

import (
	"math"
	"sort"
)

// RadixSortUint64 sorts keys ascending with an 8-bit LSD radix sort —
// the hardware-friendly sort used as the accelerated shuffle primitive.
// It runs in O(8·n) time and O(n) extra space.
func RadixSortUint64(keys []uint64) {
	n := len(keys)
	if n < 2 {
		return
	}
	buf := make([]uint64, n)
	src, dst := keys, buf
	var count [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		skip := true
		for _, k := range src {
			b := byte(k >> shift)
			if b != 0 {
				skip = false
			}
			count[b]++
		}
		if skip {
			continue
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[count[b]] = k
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// ComparisonSortUint64 is the general-purpose baseline (introsort via the
// standard library); the sort ablation compares it against radix.
func ComparisonSortUint64(keys []uint64) {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
}

// IsSortedUint64 reports whether keys is non-decreasing.
func IsSortedUint64(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			return false
		}
	}
	return true
}

// SortPairsByKey sorts parallel key/value slices by key (radix on keys,
// permuting values alongside) — the shuffle building block frameworks use.
func SortPairsByKey(keys []uint64, vals []int64) {
	n := len(keys)
	if n != len(vals) {
		panic("kernels: key/value length mismatch")
	}
	if n < 2 {
		return
	}
	kbuf := make([]uint64, n)
	vbuf := make([]int64, n)
	ksrc, kdst := keys, kbuf
	vsrc, vdst := vals, vbuf
	var count [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, k := range ksrc {
			count[byte(k>>shift)]++
		}
		// A digit every key shares orders nothing: skip the scatter.
		if count[byte(ksrc[0]>>shift)] == n {
			continue
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for i, k := range ksrc {
			b := byte(k >> shift)
			kdst[count[b]] = k
			vdst[count[b]] = vsrc[i]
			count[b]++
		}
		ksrc, kdst = kdst, ksrc
		vsrc, vdst = vdst, vsrc
	}
	if &ksrc[0] != &keys[0] {
		copy(keys, ksrc)
		copy(vals, vsrc)
	}
}

// OrderKeyInt64 maps v to a uint64 whose unsigned order is v's signed
// order (sign-bit flip) — the key encoding that lets the radix kernels
// sort signed columns.
func OrderKeyInt64(v int64) uint64 { return uint64(v) ^ (1 << 63) }

// OrderKeyFloat64 maps f to a uint64 whose unsigned order is f's numeric
// order: the IEEE total-order flip (negatives complemented, positives
// get the sign bit), with -0.0 canonicalised to +0.0 so the two zeros
// tie as they do under ==. NaNs land beyond ±Inf, by sign.
func OrderKeyFloat64(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	return TotalOrderKeyFloat64(f)
}

// TotalOrderKeyFloat64 maps f to a uint64 whose unsigned order is IEEE
// 754's totalOrder: OrderKeyFloat64's order with -0.0 below +0.0, and
// NaNs of one sign ordered by payload, so no two distinct bit patterns
// tie.
func TotalOrderKeyFloat64(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}
