package dist

import (
	"sync"

	"repro/internal/relational"
)

// Strategy selects how a relation's rows map to shards.
type Strategy int

const (
	// RangeShard cuts contiguous row ranges: shard i holds rows
	// [i·n/S, (i+1)·n/S). Shard order equals serial order, so
	// shard-ordered concatenation needs no re-sorting.
	RangeShard Strategy = iota
	// HashShard hashes a key column: co-locates equal keys — so two
	// tables hashed on their join keys join shard by shard without moving
	// a row — survives skew badly and interleaves the shards row by row in
	// seq order. Rows keep their relative order within each shard.
	HashShard
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == HashShard {
		return "hash"
	}
	return "range"
}

// SeqColName is the hidden Int column appended to every shard relation,
// carrying each row's index in the original relation. '#' cannot appear
// in a SQL identifier, so user queries can never reference or collide
// with it. Every shard-local stream stays #seq-ascending through
// filters, projections and probe-driven joins, which is what lets the
// coordinator's k-way merge reproduce the single-node row order exactly.
const SeqColName = "#seq"

// ShardedTable is one relation partitioned across the cluster's workers.
// A range placement holds its shards as zero-copy windows of the
// registered table (Shards). A hash placement holds no copy of the table:
// each shard is an ascending selection of the table's rows, and a
// column is gathered for a shard only when a query first reads it, then
// cached for every later query — so a placement costs the columns its
// queries read, not every column of every row.
type ShardedTable struct {
	Rel      *relational.Relation
	Strategy Strategy
	KeyCol   int // hash key column; -1 under RangeShard
	// Shards[i] lives on cluster worker i (RangeShard only; nil under
	// HashShard, whose shards are read through Pick). Schema is Rel.Schema
	// plus the trailing #seq column.
	Shards []*relational.Relation

	// seqs[i] is hash shard i's #seq column: the ascending indices of the
	// rows of Rel it holds.
	seqs []relational.Vector
	// mu guards gathered, the cache of shard columns: gathered[i][c] is
	// column c of Rel over shard i's rows, nil until a query first reads
	// it. A published vector is never written again.
	mu       sync.Mutex
	gathered [][]*relational.Vector
}

// ShardRelation splits rel across shards workers using the given
// strategy (keyCol names the hash column; ignored for RangeShard). The
// shards copy as little as the strategy allows: under RangeShard every
// shard is a zero-copy window of rel's columnar image plus its window of
// one iota #seq vector; under HashShard each shard keeps its ascending
// selection of rows and gathers a column only when it is first read (see
// Pick). Either way the shard vectors alias or derive from the registered
// table's image, so nothing downstream may write to them.
func ShardRelation(rel *relational.Relation, shards int, strategy Strategy, keyCol int) *ShardedTable {
	t := &ShardedTable{Rel: rel, Strategy: strategy, KeyCol: keyCol}
	cols, n := rel.Columnar(), rel.Len()
	if strategy != HashShard {
		t.KeyCol = -1
		schema := t.schema(nil)
		seq := relational.Vector{T: relational.Int, Ints: seqIota(n)}
		t.Shards = make([]*relational.Relation, shards)
		for s := range t.Shards {
			// Row i lives on shard i·S/n, so shard s starts at ⌈s·n/S⌉.
			lo, hi := (s*n+shards-1)/shards, ((s+1)*n+shards-1)/shards
			sc := append(rel.Slice(lo, hi).Columnar(), seq.Slice(lo, hi))
			t.Shards[s] = relational.NewColumnRelation(rel.Name, schema, sc, hi-lo)
		}
		return t
	}
	dests := destinations(&cols[keyCol], n, shards)
	counts := make([]int, shards)
	for _, d := range dests {
		counts[d]++
	}
	t.seqs = make([]relational.Vector, shards)
	t.gathered = make([][]*relational.Vector, shards)
	for s := range t.seqs {
		t.seqs[s] = relational.Vector{T: relational.Int, Ints: make([]int64, 0, counts[s])}
		t.gathered[s] = make([]*relational.Vector, len(cols))
	}
	for i, d := range dests {
		t.seqs[d].Ints = append(t.seqs[d].Ints, int64(i))
	}
	return t
}

// ShardCount returns the number of shards the table is split into.
func (t *ShardedTable) ShardCount() int {
	if t.Shards != nil {
		return len(t.Shards)
	}
	return len(t.seqs)
}

// schema returns the shard schema over Rel's columns cols (nil: all of
// them) plus the trailing #seq column.
func (t *ShardedTable) schema(cols []int) relational.Schema {
	var out relational.Schema
	if cols == nil {
		out = append(out, t.Rel.Schema...)
	}
	for _, c := range cols {
		out = append(out, t.Rel.Schema[c])
	}
	return append(out, relational.Column{Name: SeqColName, Type: relational.Int})
}

// Pick returns shard s over Rel's columns cols, in that order, plus the
// trailing #seq column: the stream a query leg reading only cols scans. A
// range shard windows its vectors; a hash shard gathers each of cols it
// has not gathered before (and keeps it for the next query).
func (t *ShardedTable) Pick(s int, cols []int) *relational.Relation {
	out := make([]relational.Vector, 0, len(cols)+1)
	if t.Shards != nil {
		sc := t.Shards[s].Columnar()
		for _, c := range cols {
			out = append(out, sc[c])
		}
		out = append(out, sc[t.SeqCol()])
		return relational.NewColumnRelation(t.Rel.Name, t.schema(cols), out, t.Shards[s].Len())
	}
	src, seq := t.Rel.Columnar(), t.seqs[s]
	var sel []int32 // the shard's rows as a gather selection, once needed
	t.mu.Lock()
	for _, c := range cols {
		v := t.gathered[s][c]
		if v == nil {
			if sel == nil {
				sel = make([]int32, len(seq.Ints))
				for i, r := range seq.Ints {
					sel[i] = int32(r)
				}
			}
			g := relational.GatherVector(&src[c], sel)
			v = &g
			t.gathered[s][c] = v
		}
		out = append(out, *v)
	}
	t.mu.Unlock()
	out = append(out, seq)
	return relational.NewColumnRelation(t.Rel.Name, t.schema(cols), out, len(seq.Ints))
}

// Bytes returns each shard's encoded size over every column plus #seq —
// what a rebalance or repair must move — whether or not a query has
// gathered the columns yet. A hash placement prices its selections with a
// RowSizer over the table — each selected row's encoded size plus its
// 8-byte #seq cell — to the integer an eager copy's EncodedBytes reads.
func (t *ShardedTable) Bytes() []float64 {
	out := make([]float64, t.ShardCount())
	if t.Shards != nil {
		for s, sh := range t.Shards {
			out[s] = sh.EncodedBytes()
		}
		return out
	}
	size := relational.NewRowSizer(t.Rel.Columnar())
	for s, seq := range t.seqs {
		b := 8 * len(seq.Ints)
		for _, r := range seq.Ints {
			b += size.Bytes(int(r))
		}
		out[s] = float64(b)
	}
	return out
}

// seqCells is the one iota every RangeShard placement windows its #seq
// column from: a placement after an append re-reads it instead of filling
// n fresh cells. It only grows, by doubling, into a new array; the cells
// of an array never change once published, so windows of an older one
// stay valid.
var seqCells struct {
	sync.Mutex
	ints []int64
}

// seqIota returns the clipped window [0, n) of the shared iota: cell i
// holds i. Readers must not write to it.
func seqIota(n int) []int64 {
	seqCells.Lock()
	defer seqCells.Unlock()
	if len(seqCells.ints) < n {
		ints := make([]int64, max(n, 2*len(seqCells.ints)))
		for i := range ints {
			ints[i] = int64(i)
		}
		seqCells.ints = ints
	}
	return seqCells.ints[:n:n]
}

// SeqCol returns the index of the #seq column in the shard schema.
func (t *ShardedTable) SeqCol() int { return len(t.Rel.Schema) }

// AppendTransfers prices an append: the coordinator → shard transfers
// that move rel's rows from start on to the shards ShardRelation(rel,
// shards, strategy, keyCol) would place them on, sized column-wise.
func AppendTransfers(rel *relational.Relation, start, shards int, strategy Strategy, keyCol int) []Transfer {
	cols, n := rel.Columnar(), rel.Len()
	size := relational.NewRowSizer(cols)
	bytes := make([]float64, shards)
	if strategy == HashShard {
		key := cols[keyCol].Slice(start, n)
		for i, d := range destinations(&key, n-start, shards) {
			bytes[d] += float64(size.Bytes(start + i))
		}
	} else {
		for i := start; i < n; i++ {
			bytes[i*shards/n] += float64(size.Bytes(i))
		}
	}
	var transfers []Transfer
	for s, b := range bytes {
		if b > 0 {
			transfers = append(transfers, Transfer{Src: Coordinator, Dst: s, Bytes: b})
		}
	}
	return transfers
}

// destinations returns, for each of the first n cells of key, the shard
// (of s) its hash places it on: relational.FNVKey, the engine's one key
// hash, so sharding and shuffle repartitioning place equal keys alike.
func destinations(key *relational.Vector, n, s int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(relational.FNVKey(relational.FNVOffset, key, i) % uint64(s))
	}
	return out
}
