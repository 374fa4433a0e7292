// Package dataflow is a Spark/Flink-style dataset engine: lazily-composed
// transformations over partitioned in-memory datasets, with narrow
// operations (map, filter, flatMap) fused into stages and wide operations
// (reduceByKey, groupByKey, join, repartition) introducing shuffle
// boundaries, executed partition-parallel with goroutines. Stage and
// shuffle accounting feeds the E8 abstraction comparison.
package dataflow

import (
	"fmt"
	"sync"
)

// Metrics accumulates execution statistics across one lineage.
type Metrics struct {
	mu       sync.Mutex
	Stages   int
	Tasks    int
	Shuffled int // records crossing a shuffle boundary
}

func (m *Metrics) addStage() { m.mu.Lock(); m.Stages++; m.mu.Unlock() }
func (m *Metrics) addTasks(n int) {
	m.mu.Lock()
	m.Tasks += n
	m.mu.Unlock()
}
func (m *Metrics) addShuffled(n int) {
	m.mu.Lock()
	m.Shuffled += n
	m.mu.Unlock()
}

// Snapshot returns a copy of the counters.
func (m *Metrics) Snapshot() (stages, tasks, shuffled int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Stages, m.Tasks, m.Shuffled
}

// Dataset is a lazily-evaluated, partitioned collection.
type Dataset[T any] struct {
	Name    string
	NParts  int
	M       *Metrics
	compute func() ([][]T, error)
}

// FromSlice partitions xs into the given number of partitions. The source
// counts as the first stage of its lineage.
func FromSlice[T any](name string, xs []T, partitions int) *Dataset[T] {
	if partitions < 1 {
		partitions = 1
	}
	m := &Metrics{}
	d := &Dataset[T]{Name: name, NParts: partitions, M: m}
	d.compute = func() ([][]T, error) {
		m.addStage()
		m.addTasks(partitions)
		parts := make([][]T, partitions)
		for i, x := range xs {
			p := i % partitions
			parts[p] = append(parts[p], x)
		}
		return parts, nil
	}
	return d
}

// mapPartitions applies f to each partition in parallel (narrow: no stage
// boundary, tasks fuse with the parent conceptually).
func mapPartitions[T, U any](d *Dataset[T], name string, f func([]T) ([]U, error)) *Dataset[U] {
	out := &Dataset[U]{Name: name, NParts: d.NParts, M: d.M}
	out.compute = func() ([][]U, error) {
		parts, err := d.compute()
		if err != nil {
			return nil, err
		}
		res := make([][]U, len(parts))
		errs := make([]error, len(parts))
		var wg sync.WaitGroup
		for i := range parts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res[i], errs[i] = f(parts[i])
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return res, nil
	}
	return out
}

// Map applies f element-wise.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	return mapPartitions(d, d.Name+".map", func(p []T) ([]U, error) {
		out := make([]U, len(p))
		for i, x := range p {
			out[i] = f(x)
		}
		return out, nil
	})
}

// Filter keeps elements where f is true.
func Filter[T any](d *Dataset[T], f func(T) bool) *Dataset[T] {
	return mapPartitions(d, d.Name+".filter", func(p []T) ([]T, error) {
		var out []T
		for _, x := range p {
			if f(x) {
				out = append(out, x)
			}
		}
		return out, nil
	})
}

// FlatMap expands each element into zero or more outputs.
func FlatMap[T, U any](d *Dataset[T], f func(T) []U) *Dataset[U] {
	return mapPartitions(d, d.Name+".flatMap", func(p []T) ([]U, error) {
		var out []U
		for _, x := range p {
			out = append(out, f(x)...)
		}
		return out, nil
	})
}

// Pair is a keyed record.
type Pair[K comparable, V any] struct {
	Key K
	Val V
}

// KeyBy turns a dataset into a keyed dataset.
func KeyBy[T any, K comparable](d *Dataset[T], key func(T) K) *Dataset[Pair[K, T]] {
	return Map(d, func(x T) Pair[K, T] { return Pair[K, T]{Key: key(x), Val: x} })
}

// shuffleByKey redistributes pairs so that each key lands in exactly one
// output partition. It counts a stage boundary and the shuffled records.
func shuffleByKey[K comparable, V any](d *Dataset[Pair[K, V]], name string, parts int) *Dataset[Pair[K, V]] {
	if parts < 1 {
		parts = d.NParts
	}
	out := &Dataset[Pair[K, V]]{Name: name, NParts: parts, M: d.M}
	out.compute = func() ([][]Pair[K, V], error) {
		src, err := d.compute()
		if err != nil {
			return nil, err
		}
		d.M.addStage()
		d.M.addTasks(parts)
		res := make([][]Pair[K, V], parts)
		n := 0
		for _, p := range src {
			for _, kv := range p {
				b := int(fnvAny(kv.Key) % uint64(parts))
				res[b] = append(res[b], kv)
				n++
			}
		}
		d.M.addShuffled(n)
		return res, nil
	}
	return out
}

func fnvAny(k any) uint64 {
	h := uint64(14695981039346656037)
	s := fmt.Sprint(k)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ReduceByKey combines values per key with an associative function (wide:
// shuffles).
func ReduceByKey[K comparable, V any](d *Dataset[Pair[K, V]], f func(V, V) V) *Dataset[Pair[K, V]] {
	sh := shuffleByKey(d, d.Name+".reduceByKey", d.NParts)
	return mapPartitions(sh, sh.Name+".combine", func(p []Pair[K, V]) ([]Pair[K, V], error) {
		acc := map[K]V{}
		var order []K
		for _, kv := range p {
			if prev, ok := acc[kv.Key]; ok {
				acc[kv.Key] = f(prev, kv.Val)
			} else {
				acc[kv.Key] = kv.Val
				order = append(order, kv.Key)
			}
		}
		out := make([]Pair[K, V], 0, len(acc))
		for _, k := range order {
			out = append(out, Pair[K, V]{Key: k, Val: acc[k]})
		}
		return out, nil
	})
}

// GroupByKey collects all values per key (wide: shuffles).
func GroupByKey[K comparable, V any](d *Dataset[Pair[K, V]]) *Dataset[Pair[K, []V]] {
	sh := shuffleByKey(d, d.Name+".groupByKey", d.NParts)
	return mapPartitions(sh, sh.Name+".group", func(p []Pair[K, V]) ([]Pair[K, []V], error) {
		acc := map[K][]V{}
		var order []K
		for _, kv := range p {
			if _, ok := acc[kv.Key]; !ok {
				order = append(order, kv.Key)
			}
			acc[kv.Key] = append(acc[kv.Key], kv.Val)
		}
		out := make([]Pair[K, []V], 0, len(acc))
		for _, k := range order {
			out = append(out, Pair[K, []V]{Key: k, Val: acc[k]})
		}
		return out, nil
	})
}

// Joined is one inner-join output row.
type Joined[V, W any] struct {
	Left  V
	Right W
}

// Join computes the inner equi-join of two keyed datasets (wide: shuffles
// both sides).
func Join[K comparable, V, W any](a *Dataset[Pair[K, V]], b *Dataset[Pair[K, W]]) *Dataset[Pair[K, Joined[V, W]]] {
	if a.M != b.M {
		// Merge lineages: adopt a's metrics for the join output, but still
		// count b's execution in b's metrics.
		b = &Dataset[Pair[K, W]]{Name: b.Name, NParts: b.NParts, M: b.M, compute: b.compute}
	}
	parts := a.NParts
	if b.NParts > parts {
		parts = b.NParts
	}
	sa := shuffleByKey(a, a.Name+".joinL", parts)
	sb := shuffleByKey(b, b.Name+".joinR", parts)
	out := &Dataset[Pair[K, Joined[V, W]]]{Name: a.Name + "⋈" + b.Name, NParts: parts, M: a.M}
	out.compute = func() ([][]Pair[K, Joined[V, W]], error) {
		pa, err := sa.compute()
		if err != nil {
			return nil, err
		}
		pb, err := sb.compute()
		if err != nil {
			return nil, err
		}
		res := make([][]Pair[K, Joined[V, W]], parts)
		var wg sync.WaitGroup
		for i := 0; i < parts; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				table := map[K][]V{}
				for _, kv := range pa[i] {
					table[kv.Key] = append(table[kv.Key], kv.Val)
				}
				for _, kw := range pb[i] {
					for _, v := range table[kw.Key] {
						res[i] = append(res[i], Pair[K, Joined[V, W]]{
							Key: kw.Key, Val: Joined[V, W]{Left: v, Right: kw.Val},
						})
					}
				}
			}(i)
		}
		wg.Wait()
		return res, nil
	}
	return out
}

// Collect materializes the dataset into one slice (partition order, then
// intra-partition order — deterministic for a fixed partition count).
func Collect[T any](d *Dataset[T]) ([]T, error) {
	parts, err := d.compute()
	if err != nil {
		return nil, err
	}
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Count materializes and counts.
func Count[T any](d *Dataset[T]) (int, error) {
	parts, err := d.compute()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n, nil
}
