package relational

import "strconv"

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
// the one joinIndex, and the budget prices every leaf as a pass of its
// own.
type graceLeaf struct {
	id      int
	bytes   int64
	spilled bool
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
		c.meter.notePartition(depth + 1)
		c.meter.chargeWrite(bytes)
		if bytes > c.budget.Limit() && depth+1 < maxGraceDepth {
			c.meter.chargeRead(bytes)
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

// graceProbe drains this stream's whole probe partition, routing each
// selected row, where it lies, through the partition tree to size the
// probe partitions written out beside spilled build leaves, then prices
// every visited leaf's pass (write + read-back of its probe rows,
// read-back of its build rows). Every build row of a key sits in one leaf
// and the host keeps the one joinIndex over all of them, so the
// leaf-at-a-time passes produce, once reassembled in arrival order,
// exactly what probing batch by batch produces — which is what runs. The
// drain happens strictly below any Exchange above this operator (one
// synchronous pull per stream), so buffering the stream here cannot
// deadlock the batch pipeline.
//
// The probe drains before it emits because the price is per stream: each
// (probe stream, spilled leaf) pair is charged once. A streamed probe
// let the Exchange spread morsels over more streams — 48–54 write
// charges per join became 72 — and raised olap_dist_allon's
// relational.spill_model_ms_per_op from 16.06 to 17.45 in 4 of 4 pairs,
// while slowing the budgeted join rung by about 10% on 2 vCPUs. Streaming
// waits for probe partitions charged per operator rather than per stream.
func (j *BatchHashJoin) graceProbe() ([]*Batch, error) {
	c := j.core
	bufBytes := make([]int64, len(c.leaves))
	var out []*Batch
	for {
		b, err := j.probe.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		pc, sizer := &b.Cols[c.probeCol], NewRowSizer(b.Cols)
		for i, n := 0, b.Len(); i < n; i++ {
			r := i // the vectors' row
			if b.Sel != nil {
				r = int(b.Sel[i])
			}
			if l := c.routeLeaf(pc, r); l != nil {
				bufBytes[l.id] += int64(sizer.Bytes(r))
			}
		}
		if o := j.joinBatch(b); o != nil {
			out = append(out, o)
		}
	}
	for li, l := range c.leaves {
		if l.spilled && bufBytes[li] > 0 {
			c.meter.chargeWrite(bufBytes[li])
			c.meter.chargeRead(bufBytes[li])
			c.meter.chargeRead(l.bytes)
		}
	}
	return out, nil
}
