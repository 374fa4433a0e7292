package main

import (
	"math"
	"math/rand"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values; 0 if empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// balancedBlock returns one shuffled block holding every class index
// perClass times. Drawing whole blocks keeps the class mix exactly
// balanced however long a run lasts, and shuffling (not round-robin)
// keeps two concurrent clients from phase-locking.
func balancedBlock(rng *rand.Rand, nClasses, perClass int) []int {
	block := make([]int, 0, nClasses*perClass)
	for c := 0; c < nClasses; c++ {
		for i := 0; i < perClass; i++ {
			block = append(block, c)
		}
	}
	rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

// heapAllocBytes reads the cumulative bytes allocated on the Go heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc, in
// MB; 0 where /proc is unavailable.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
