package relational

import (
	"encoding/binary"
	"math"
)

// intTable is an open-addressing map from int64 keys to int32 refs — the
// typed lookup under group-by and join when the key is one Int column (or
// one Float column, by floatKeyBits). Linear probing over parallel
// key/ref arrays at load <= 1/2; the zero value is an empty table.
type intTable struct {
	keys []int64
	refs []int32 // ref+1; 0 marks an empty slot
	n    int
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// get returns the ref stored under k, or -1.
func (t *intTable) get(k int64) int32 {
	if t.n == 0 {
		return -1
	}
	mask := uint64(len(t.refs) - 1)
	for s := mix64(uint64(k)) & mask; ; s = (s + 1) & mask {
		r := t.refs[s]
		if r == 0 {
			return -1
		}
		if t.keys[s] == k {
			return r - 1
		}
	}
}

// getOrPut returns the ref stored under k; when k is absent it stores
// ref first and reports fresh.
func (t *intTable) getOrPut(k int64, ref int32) (got int32, fresh bool) {
	if 2*(t.n+1) > len(t.refs) {
		// Small tables quadruple: a third of the rehashing of doubling,
		// while the memory at stake is still small.
		grow := 2
		if len(t.refs) < 1<<16 {
			grow = 4
		}
		t.resize(max(64, grow*len(t.refs)))
	}
	mask := uint64(len(t.refs) - 1)
	for s := mix64(uint64(k)) & mask; ; s = (s + 1) & mask {
		r := t.refs[s]
		if r == 0 {
			t.keys[s], t.refs[s] = k, ref+1
			t.n++
			return ref, true
		}
		if t.keys[s] == k {
			return r - 1, false
		}
	}
}

// reserve sizes the table for n keys up front, sparing the doublings.
func (t *intTable) reserve(n int) {
	size := 64
	for size < 2*n {
		size *= 2
	}
	if size > len(t.refs) {
		t.resize(size)
	}
}

// resize rehashes into size slots (a power of two).
func (t *intTable) resize(size int) {
	keys, refs := t.keys, t.refs
	t.keys, t.refs, t.n = make([]int64, size), make([]int32, size), 0
	for s, r := range refs {
		if r != 0 {
			t.getOrPut(keys[s], r-1)
		}
	}
}

// floatKeyBits is a Float key's identity under Value.Key() equality: the
// IEEE bits (so -0.0 and +0.0 stay distinct keys), with every NaN
// collapsed onto one pattern (Key() renders them all "NaN").
func floatKeyBits(f float64) int64 {
	if f != f {
		return 0x7FF8000000000001
	}
	return int64(math.Float64bits(f))
}

// packKey appends row r's key tuple to kb in a form that is equal exactly
// when every cell is Key()-equal: numerics as 8 bytes, strings
// length-prefixed. Column types are fixed per position, so no type tags
// are needed.
func packKey(kb []byte, kc []Vector, r int) []byte {
	for i := range kc {
		switch c := &kc[i]; c.T {
		case Int:
			kb = binary.LittleEndian.AppendUint64(kb, uint64(c.Ints[r]))
		case Float:
			kb = binary.LittleEndian.AppendUint64(kb, uint64(floatKeyBits(c.Floats[r])))
		default:
			kb = binary.LittleEndian.AppendUint32(kb, uint32(len(c.Strs[r])))
			kb = append(kb, c.Strs[r]...)
		}
	}
	return kb
}

// keyIndex maps typed key tuples to int32 refs under Value.Key()
// equality: one Int or Float column through an intTable, one String
// column through a string map keyed by the column's own strings, and any
// wider tuple through the same map keyed by packKey bytes.
type keyIndex struct {
	ints intTable
	strs map[string]int32
	kb   []byte
}

// getOrPut returns the ref stored under row r of the key columns kc,
// storing ref first (and reporting fresh) when the key is absent.
func (x *keyIndex) getOrPut(kc []Vector, r int, ref int32) (got int32, fresh bool) {
	var k string
	if len(kc) == 1 {
		switch c := &kc[0]; c.T {
		case Int:
			return x.ints.getOrPut(c.Ints[r], ref)
		case Float:
			return x.ints.getOrPut(floatKeyBits(c.Floats[r]), ref)
		default:
			k = c.Strs[r]
		}
		if g, ok := x.strs[k]; ok {
			return g, false
		}
	} else {
		x.kb = packKey(x.kb[:0], kc, r)
		if g, ok := x.strs[string(x.kb)]; ok {
			return g, false
		}
		k = string(x.kb)
	}
	if x.strs == nil {
		x.strs = map[string]int32{}
	}
	x.strs[k] = ref
	return ref, true
}

// reserve sizes the lookup of key columns kc for n keys up front.
func (x *keyIndex) reserve(kc []Vector, n int) {
	if len(kc) == 1 && kc[0].T != String {
		x.ints.reserve(n)
	} else if x.strs == nil {
		x.strs = make(map[string]int32, n)
	}
}

// reset empties the lookup, keeping its room.
func (x *keyIndex) reset() {
	clear(x.ints.refs)
	x.ints.n = 0
	clear(x.strs)
}

// find returns the ref stored under row r of the key columns kc, or -1.
func (x *keyIndex) find(kc []Vector, r int) int32 {
	if len(kc) == 1 {
		return x.get(&kc[0], r)
	}
	x.kb = packKey(x.kb[:0], kc, r)
	if g, ok := x.strs[string(x.kb)]; ok {
		return g
	}
	return -1
}

// get returns the ref stored under row r of the single key column c, or
// -1. The column's type must be the type the index was built over.
func (x *keyIndex) get(c *Vector, r int) int32 {
	switch c.T {
	case Int:
		return x.ints.get(c.Ints[r])
	case Float:
		return x.ints.get(floatKeyBits(c.Floats[r]))
	default:
		if g, ok := x.strs[c.Strs[r]]; ok {
			return g
		}
		return -1
	}
}
