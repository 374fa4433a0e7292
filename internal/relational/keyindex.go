package relational

import (
	"encoding/binary"
	"math"
)

// intTable maps int64 keys to int32 refs — the typed lookup under
// group-by and join when the key is one Int column (or one Float column,
// by floatKeyBits). It addresses its slots one of two ways, picked from
// the keys it holds:
//
//   - direct: while every key lies in the window [lo, lo+len(refs)), key
//     k lives at refs[k-lo] — no hash, no probe, no keys array. Surrogate
//     and foreign keys, which fill a dense id range, land here.
//   - hashed: otherwise, linear probing over parallel key/ref arrays at
//     load <= 1/2, slots picked by the splitmix64 finalizer.
//
// The pick is remade at every re-layout — a hashed resize, a reserve, a
// key outside a direct window — from the span of the keys held (and of
// the keys a reserve announces): direct when it fits directLimit, so a
// direct table never takes more memory than the hashed table it
// replaces. A window widens geometrically, centred on the keys, so keys
// arriving in any order re-lay the table out O(log n) times. Spans are
// taken in uint64, so no key set wraps into a small window. Refs are
// whatever the caller stores, in either layout. The zero value is an
// empty table.
type intTable struct {
	refs       []int32 // ref+1; 0 marks an empty slot
	keys       []int64 // the hashed layout's keys; nil while direct
	lo         int64   // direct: refs[k-lo] holds key k
	kmin, kmax int64   // span of the keys held, when n > 0
	room       int     // most keys held or reserved: what layouts are sized for
	n          int
}

// hashSlots is the slot count of the smallest hashed table for n keys.
func hashSlots(n int) int {
	size := 64
	for size < 2*n {
		size *= 2
	}
	return size
}

// directLimit is the widest window a table sized for room keys may take:
// a direct slot is 4 bytes and a hashed one 12, so the window costs at
// most what the smallest hashed table for room keys does.
func directLimit(room int) uint64 { return 3 * uint64(hashSlots(room)) }

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
	if t.keys == nil {
		if s := uint64(k) - uint64(t.lo); s < uint64(len(t.refs)) {
			return t.refs[s] - 1
		}
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

// lookup sets out[i] to the ref stored under keys[sel[i]], or -1: get
// over a selection, with the direct window's read inline.
func (t *intTable) lookup(keys []int64, sel, out []int32) {
	if t.keys != nil {
		for i, r := range sel {
			out[i] = t.get(keys[r])
		}
		return
	}
	refs, lo := t.refs, uint64(t.lo)
	for i, r := range sel {
		m := int32(-1)
		if s := uint64(keys[r]) - lo; s < uint64(len(refs)) {
			m = refs[s] - 1
		}
		out[i] = m
	}
}

// getOrPut returns the ref stored under k; when k is absent it stores
// ref first and reports fresh.
func (t *intTable) getOrPut(k int64, ref int32) (got int32, fresh bool) {
	if t.keys == nil {
		s := uint64(k) - uint64(t.lo)
		if s >= uint64(len(t.refs)) {
			t.place(k)
			return t.getOrPut(k, ref)
		}
		if r := t.refs[s]; r != 0 {
			return r - 1, false
		}
		t.refs[s] = ref + 1
	} else {
		if 2*(t.n+1) > len(t.refs) {
			t.place(k)
			return t.getOrPut(k, ref)
		}
		mask := uint64(len(t.refs) - 1)
		s := mix64(uint64(k)) & mask
		for ; t.refs[s] != 0; s = (s + 1) & mask {
			if t.keys[s] == k {
				return t.refs[s] - 1, false
			}
		}
		t.keys[s], t.refs[s] = k, ref+1
	}
	if t.n == 0 {
		t.kmin, t.kmax = k, k
	} else if k < t.kmin {
		t.kmin = k
	} else if k > t.kmax {
		t.kmax = k
	}
	t.n++
	return ref, true
}

// place re-lays the table out to take key k, which the layout cannot: k
// misses the direct window, or the hashed table is full.
func (t *intTable) place(k int64) { t.relayout(t.n+1, k, k, true) }

// reserve sizes the table for n keys up front, sparing re-layouts: a
// hashed table re-lays itself out for them (direct, when the keys held
// fit a window that large); a direct window widens on demand, up to the
// limit n allows.
func (t *intTable) reserve(n int) {
	t.room = max(t.room, n)
	switch {
	case t.keys == nil:
	case t.n > 0:
		t.relayout(n, t.kmin, t.kmax, false)
	case hashSlots(n) > len(t.refs):
		t.lay(hashSlots(n), 0, true)
	}
}

// reserveHashed lays an empty table out hashed for n keys: the layout
// for keys too sparse over their span for any direct window.
func (t *intTable) reserveHashed(n int) {
	t.room = max(t.room, n)
	t.lay(hashSlots(t.room), 0, true)
}

// reserveSpan sizes the table for n keys known to lie in [lo, hi]: a
// direct table covering them already stays as it is; otherwise the
// table re-lays itself out for them and the keys held.
func (t *intTable) reserveSpan(n int, lo, hi int64) {
	w := uint64(len(t.refs))
	if t.keys == nil && uint64(lo)-uint64(t.lo) < w && uint64(hi)-uint64(t.lo) < w {
		t.room = max(t.room, n)
		return
	}
	t.relayout(n, lo, hi, false)
}

// relayout lays the table out afresh, sized for room keys, to hold the
// keys held and keys to come in [lo, hi]. While the span of both fits
// directLimit the table is a direct window centred on it: on a reserve,
// exactly the span; when a key waits for a slot (grow), at least twice
// the old window, twice the span and 64 slots, so a window widens
// geometrically and keys in any order re-lay it out O(log n) times. An
// empty window wide enough for the keys (an announced span no key has
// landed in yet) moves to them instead, keeping its room. Otherwise the table hashes — as does a window already
// at its limit that a key missed, rather than shift once per key: a
// growing one with room to grow, a reserve for room exactly.
func (t *intTable) relayout(room int, lo, hi int64, grow bool) {
	t.room = max(t.room, room)
	if t.n > 0 {
		lo, hi = min(lo, t.kmin), max(hi, t.kmax)
	}
	limit, span, w := directLimit(t.room), uint64(hi)-uint64(lo), uint64(len(t.refs))
	nw := span + 1
	if grow {
		nw = min(limit, max(2*w, 2*nw, 64))
	}
	switch {
	case t.n == 0 && t.keys == nil && span < w:
		t.lo = windowBase(w, lo, span)
		return
	case span >= limit, grow && t.keys == nil && nw == w:
	default:
		t.lay(int(nw), windowBase(nw, lo, span), false)
		return
	}
	size := hashSlots(t.room)
	switch {
	case t.keys == nil && grow:
		size = max(size, hashSlots(2*(t.n+1)))
	case t.keys == nil:
	case grow:
		// Small tables quadruple: a third of the rehashing of doubling,
		// while the memory at stake is still small.
		size = 2 * len(t.refs)
		if len(t.refs) < 1<<16 {
			size = 4 * len(t.refs)
		}
	case size <= len(t.refs):
		return
	}
	t.lay(size, 0, true)
}

// lay re-enters every key held into a fresh layout of size slots: hashed,
// or a direct window from base.
func (t *intTable) lay(size int, base int64, hashed bool) {
	keys, refs, lo := t.keys, t.refs, t.lo
	t.refs, t.keys, t.lo = make([]int32, size), nil, base
	if hashed {
		t.keys = make([]int64, size)
	}
	for s, r := range refs {
		if r == 0 {
			continue
		}
		k := lo + int64(s)
		if keys != nil {
			k = keys[s]
		}
		if !hashed {
			t.refs[uint64(k)-uint64(base)] = r
			continue
		}
		mask := uint64(size - 1)
		s := mix64(uint64(k)) & mask
		for t.refs[s] != 0 {
			s = (s + 1) & mask
		}
		t.keys[s], t.refs[s] = k, r
	}
}

// windowBase returns the base of a w-slot window centred on the keys
// [lo, lo+span] (span < w). Slots count k-base modulo 2^64, so a window
// may run past either end of the int64 range: each key still has one
// slot.
func windowBase(w uint64, lo int64, span uint64) int64 {
	return lo - int64((w-1-span)/2)
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
// when every cell is Key()-equal: numerics as 8 bytes, strings (decoded)
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
			s := c.Str(r)
			kb = binary.LittleEndian.AppendUint32(kb, uint32(len(s)))
			kb = append(kb, s...)
		}
	}
	return kb
}

// codeRefs translates the codes of one Dict into the refs a keyIndex's
// string map holds under their entries: refs[code] is ref+1, 0 until the
// code is first resolved. It caches the map, filled lazily, so refs and
// first-seen order are the map's; a code absent from the map is looked up
// again next time, so later puts cannot leave it stale.
type codeRefs struct {
	dict *Dict
	refs []int32
}

// on points the translation at d, emptying it when it held another
// Dict's; its storage is reused.
func (t *codeRefs) on(d *Dict) {
	if t.dict != d {
		t.switchTo(d)
	}
}

func (t *codeRefs) switchTo(d *Dict) {
	t.dict = d
	if cap(t.refs) >= d.Len() {
		t.refs = t.refs[:d.Len()]
		clear(t.refs)
	} else {
		t.refs = make([]int32, d.Len())
	}
}

// keyIndex maps typed key tuples to int32 refs under Value.Key()
// equality: one Int or Float column through an intTable (addressed by
// k - lo while the keys' span fits its direct limit, hashed otherwise),
// one String column through a string map keyed by the column's own
// strings, and any wider tuple through the same map keyed by packKey
// bytes. A coded String key resolves through codes, a per-Dict code → ref
// translation of the map: after a code's first lookup every row carrying
// it is one array read. The translation follows the Dict of the column
// fed; switching Dicts starts it afresh.
type keyIndex struct {
	ints  intTable
	strs  map[string]int32
	kb    []byte
	codes codeRefs
}

// getOrPut returns the ref stored under row r of the key columns kc,
// storing ref first (and reporting fresh) when the key is absent.
func (x *keyIndex) getOrPut(kc []Vector, r int, ref int32) (got int32, fresh bool) {
	if len(kc) != 1 {
		x.kb = packKey(x.kb[:0], kc, r)
		if g, ok := x.strs[string(x.kb)]; ok {
			return g, false
		}
		return x.put(string(x.kb), ref), true
	}
	switch c := &kc[0]; {
	case c.T == Int:
		return x.ints.getOrPut(c.Ints[r], ref)
	case c.T == Float:
		return x.ints.getOrPut(floatKeyBits(c.Floats[r]), ref)
	case c.Dict != nil:
		x.codes.on(c.Dict)
		code := c.Codes[r]
		if t := x.codes.refs[code]; t != 0 {
			return t - 1, false
		}
		got, fresh = x.getOrPutStr(c.Dict.strs[code], ref)
		x.codes.refs[code] = got + 1
		return got, fresh
	default:
		return x.getOrPutStr(c.Strs[r], ref)
	}
}

// getOrPutStr is getOrPut on the string map.
func (x *keyIndex) getOrPutStr(k string, ref int32) (int32, bool) {
	if g, ok := x.strs[k]; ok {
		return g, false
	}
	return x.put(k, ref), true
}

// put stores ref under the absent string key k.
func (x *keyIndex) put(k string, ref int32) int32 {
	if x.strs == nil {
		x.strs = map[string]int32{}
	}
	x.strs[k] = ref
	return ref
}

// reserve sizes the lookup of key columns kc for n keys up front.
func (x *keyIndex) reserve(kc []Vector, n int) {
	if len(kc) == 1 && kc[0].T != String {
		x.ints.reserve(n)
	} else if x.strs == nil {
		x.strs = make(map[string]int32, n)
	}
}

// find returns the ref stored under row r of the key columns kc, or -1.
func (x *keyIndex) find(kc []Vector, r int) int32 {
	if len(kc) == 1 {
		return x.get(&kc[0], r, &x.codes)
	}
	x.kb = packKey(x.kb[:0], kc, r)
	if g, ok := x.strs[string(x.kb)]; ok {
		return g
	}
	return -1
}

// get returns the ref stored under row r of the single key column c, or
// -1. The column's type must be the type the index was built over. A
// coded column resolves through tr, a translation the caller owns — the
// index's own, or, for the concurrent probes of a finished join index,
// one per probing stream; it stays valid as the index grows.
func (x *keyIndex) get(c *Vector, r int, tr *codeRefs) int32 {
	switch {
	case c.T == Int:
		return x.ints.get(c.Ints[r])
	case c.T == Float:
		return x.ints.get(floatKeyBits(c.Floats[r]))
	case c.Dict != nil:
		tr.on(c.Dict)
		code := c.Codes[r]
		if t := tr.refs[code]; t != 0 {
			return t - 1
		}
		g := x.str(c.Dict.strs[code])
		tr.refs[code] = g + 1
		return g
	default:
		return x.str(c.Strs[r])
	}
}

// str returns the ref stored under the string key k, or -1.
func (x *keyIndex) str(k string) int32 {
	if g, ok := x.strs[k]; ok {
		return g
	}
	return -1
}
