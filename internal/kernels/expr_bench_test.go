package kernels

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkRangeSelectivity is the comparison kernels' rung: x >= lo
// over 2^18 uniform values in [0, 100) in 1024-row batches, the way a
// filter calls it, at the pass rates of the benchmark's year predicates
// (>= 2016: 14%, >= 2015: 29%, >= 2012: 71%), through AppendCmpConst
// (the planner's form of an Int comparison with a literal) and
// AppendRangeIncl (a hand-built ColRange). A branchy kernel is slowest
// near 50%; a branch-free one runs at one speed. Mrows/s is the number.
func BenchmarkRangeSelectivity(b *testing.B) {
	const n, batch = 1 << 18, 1024
	rng := rand.New(rand.NewSource(1))
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(rng.Intn(100))
	}
	sel := make([]int32, 0, batch)
	for _, k := range []struct {
		name string
		at   func(lo int64, vals []int64) []int32
	}{
		{"cmp", func(lo int64, vals []int64) []int32 { return AppendCmpConst(sel[:0], vals, LT, true, lo) }},
		{"range", func(lo int64, vals []int64) []int32 { return AppendRangeIncl(sel[:0], vals, lo, 1<<62) }},
	} {
		for _, pass := range []int64{14, 29, 71} {
			b.Run(fmt.Sprintf("%s/pass%d", k.name, pass), func(b *testing.B) {
				kept := 0
				for b.Loop() {
					kept = 0
					for lo := 0; lo < n; lo += batch {
						sel = k.at(100-pass, col[lo:lo+batch])
						kept += len(sel)
					}
				}
				if got := float64(kept) / n; got < float64(pass)/100-0.01 || got > float64(pass)/100+0.01 {
					b.Fatalf("kept %.3f of the rows, want %.2f", got, float64(pass)/100)
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
			})
		}
	}
}
