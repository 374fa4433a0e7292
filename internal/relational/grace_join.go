package relational

import (
	"strconv"
	"sync/atomic"
)

// A join whose build table does not fit its budget is grace-priced: the
// table is hash-partitioned into leaves that stay resident or are priced
// as spilled (buildGrace), and each probe batch is routed to the leaves
// to count the probe partitions written beside the spilled ones
// (countProbe). The join itself runs as without a budget — one index,
// probed batch by batch — so only the price changes.
//
// Grace partitioning parameters. Fanout 8 shrinks partitions fast (a
// budget overrun of 8x resolves in one pass); the depth cap bounds the
// recursion on degenerate key distributions (all rows one key) — a leaf
// at the cap is processed in memory regardless of size, so a skewed key
// degrades gracefully instead of recursing forever or failing.
const (
	graceFanout   = 8
	maxGraceDepth = 4
)

// FNVOffset is the FNV-1a offset basis, the hash FNVKey starts from.
const FNVOffset uint64 = 14695981039346656037

const fnvPrime64 = 1099511628211

// FNVKey folds the bytes of cell r's Value.Key() rendering into the
// FNV-1a hash h. Numeric cells render into a stack buffer and strings are
// read in place: nothing is boxed. It is the engine's one key hash: shard
// placement (dist), spill key partitions and non-Int grace buckets.
func FNVKey(h uint64, col *Vector, r int) uint64 {
	var buf [32]byte
	switch col.T {
	case Int:
		return fnvBytes(h, strconv.AppendInt(append(buf[:0], 'i'), col.Ints[r], 10))
	case Float:
		return fnvBytes(h, strconv.AppendFloat(append(buf[:0], 'f'), col.Floats[r], 'b', -1, 64))
	default:
		return fnvBytes((h^'s')*fnvPrime64, col.Str(r))
	}
}

// fnvBytes folds b into the FNV-1a hash h.
func fnvBytes[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime64
	}
	return h
}

// graceHash hashes row r of a join key column. Int keys take a mixer;
// Float and String keys FNV-1a over their Key() bytes. The two never
// need to agree: an Int key only ever matches an Int (Key() encodes the
// type).
func graceHash(col *Vector, r int) uint64 {
	if col.T == Int {
		h := uint64(col.Ints[r])
		h ^= h >> 33
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 33
		return h
	}
	return FNVKey(FNVOffset, col, r)
}

// graceBucket assigns row r of a key column to one of the fanout buckets
// at the given recursion depth. The depth salts the hash so a bucket's
// keys spread across all children when re-partitioned, instead of
// collapsing into one child again.
func graceBucket(col *Vector, r, depth int) int {
	h := graceHash(col, r)
	h ^= uint64(depth+1) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return int(h % graceFanout)
}

// graceLeaf is one terminal build partition: either resident (its bytes
// fit the budget, first-fit at build time) or spilled to the tier. All
// build rows of one key land in one leaf with serial order preserved, so
// the build table's per-key chains are each leaf's own: the host keeps
// the one joinIndex and probes it batch by batch, and the budget prices
// every spilled leaf as a pass of its own (countProbe).
type graceLeaf struct {
	id      int
	bytes   int64
	spilled bool
	probed  atomic.Bool // a probe partition was written beside it
}

// graceNode is one level of the recursive partitioning tree: each bucket
// is either a leaf or (when it overflowed the whole budget) a deeper node.
type graceNode struct {
	depth  int
	kids   [graceFanout]*graceNode
	leaves [graceFanout]*graceLeaf
}

// buildGrace partitions the build rows after the whole-table reservation
// failed. Called once from runBuild, before any probe runs.
func (c *joinCore) buildGrace() {
	idxs := make([]int32, c.tab.Len())
	for i := range idxs {
		idxs[i] = int32(i)
	}
	c.grace = c.splitGrace(idxs, 0)
}

// splitGrace hash-partitions idxs into fanout buckets. Each bucket tries
// to reserve residence; a bucket that fails spills (one partition write),
// and a spilled bucket too big to ever fit re-partitions one level deeper
// (read back + re-write via the recursive call), up to the depth cap.
func (c *joinCore) splitGrace(idxs []int32, depth int) *graceNode {
	n := &graceNode{depth: depth}
	var buckets [graceFanout][]int32
	key, sizer := &c.tab.cols[c.tab.keyCol], NewRowSizer(c.tab.cols)
	for _, i := range idxs {
		b := graceBucket(key, int(i), depth)
		buckets[b] = append(buckets[b], i)
	}
	for bi, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		var bytes int64
		for _, i := range bucket {
			bytes += int64(sizer.Bytes(int(i)))
		}
		if c.budget.Reserve(bytes) {
			n.leaves[bi] = c.newGraceLeaf(bytes, false)
			continue
		}
		c.meter.evict(depth+1, bytes)
		if bytes > c.budget.Limit() && depth+1 < maxGraceDepth {
			c.meter.charge(0, 0, 1, bytes)
			n.kids[bi] = c.splitGrace(bucket, depth+1)
			continue
		}
		n.leaves[bi] = c.newGraceLeaf(bytes, true)
	}
	return n
}

func (c *joinCore) newGraceLeaf(bytes int64, spilled bool) *graceLeaf {
	l := &graceLeaf{id: len(c.leaves), bytes: bytes, spilled: spilled}
	c.leaves = append(c.leaves, l)
	return l
}

// routeLeaf descends the partition tree for row r of a probe key column.
// A nil result means the key hashed to a bucket with no build rows: no
// match possible.
func (c *joinCore) routeLeaf(col *Vector, r int) *graceLeaf {
	n := c.grace
	for {
		b := graceBucket(col, r, n.depth)
		if n.kids[b] != nil {
			n = n.kids[b]
			continue
		}
		return n.leaves[b]
	}
}

// countProbe routes the selected rows of probe batch b through the
// partition tree and counts the bytes of those that land in spilled
// leaves: the probe partitions written out beside the leaves and read
// back with them. The first row a leaf receives also counts its pass's
// accesses: the probe partition's write and read-back, and the read-back
// of the leaf's own rows. So each spilled leaf is one pass per operator,
// whichever probe stream reaches it first, and the counts are the same in
// any order. Nothing is buffered: the probe streams batch by batch, as
// without a budget. A no-op unless the table went to grace partitions.
func (c *joinCore) countProbe(b *Batch) {
	if c.grace == nil {
		return
	}
	var bytes, passes, leafBytes int64
	pc, sizer := &b.Cols[c.probeCol], NewRowSizer(b.Cols)
	for i, n := 0, b.Len(); i < n; i++ {
		r := i // the vectors' row
		if b.Sel != nil {
			r = int(b.Sel[i])
		}
		if l := c.routeLeaf(pc, r); l != nil && l.spilled {
			bytes += int64(sizer.Bytes(r))
			if !l.probed.Load() && l.probed.CompareAndSwap(false, true) {
				passes, leafBytes = passes+1, leafBytes+l.bytes
			}
		}
	}
	c.meter.charge(passes, bytes, 2*passes, bytes+leafBytes)
}
