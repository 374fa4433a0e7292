package dist

import (
	"strconv"
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
	// HashShard hashes a key column: co-locates equal keys, survives
	// skew badly but makes single-key lookups local. Rows keep their
	// relative order within each shard.
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
type ShardedTable struct {
	Rel      *relational.Relation
	Strategy Strategy
	KeyCol   int // hash key column; -1 under RangeShard
	// Shards[i] lives on cluster worker i. Schema is Rel.Schema plus the
	// trailing #seq column.
	Shards []*relational.Relation
}

// ShardRelation splits rel across shards workers using the given
// strategy (keyCol names the hash column; ignored for RangeShard). The
// shards are column-built and copy as little as the strategy allows:
// under RangeShard every shard is a zero-copy window of rel's columnar
// image plus its window of one iota #seq vector; under HashShard each
// shard gathers its ascending selection of rows. Either way the shard
// vectors alias or derive from the registered table's image, so nothing
// downstream may write to them.
func ShardRelation(rel *relational.Relation, shards int, strategy Strategy, keyCol int) *ShardedTable {
	schema := append(append(relational.Schema{}, rel.Schema...),
		relational.Column{Name: SeqColName, Type: relational.Int})
	t := &ShardedTable{Rel: rel, Strategy: strategy, KeyCol: keyCol, Shards: make([]*relational.Relation, shards)}
	cols, n := rel.Columnar(), rel.Len()
	if strategy != HashShard {
		t.KeyCol = -1
		seq := relational.Vector{T: relational.Int, Ints: seqIota(n)}
		for s := range t.Shards {
			// Row i lives on shard i·S/n, so shard s starts at ⌈s·n/S⌉.
			lo, hi := (s*n+shards-1)/shards, ((s+1)*n+shards-1)/shards
			sc := append(rel.Slice(lo, hi).Columnar(), seq.Slice(lo, hi))
			t.Shards[s] = relational.NewColumnRelation(rel.Name, schema, sc, hi-lo)
		}
		return t
	}
	sels := make([][]int32, shards)
	for i, d := range destinations(&cols[keyCol], n, shards) {
		sels[d] = append(sels[d], int32(i))
	}
	for s, sel := range sels {
		sc := make([]relational.Vector, 0, len(cols)+1)
		for c := range cols {
			sc = append(sc, relational.GatherVector(&cols[c], sel))
		}
		seq := relational.Vector{T: relational.Int, Ints: make([]int64, len(sel))}
		for i, r := range sel {
			seq.Ints[i] = int64(r)
		}
		t.Shards[s] = relational.NewColumnRelation(rel.Name, schema, append(sc, seq), len(sel))
	}
	return t
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

// FNV-1a over a value's type-tagged key form — the byte sequence of
// Value.Key(): 'i' + decimal, 'f' + the 'b' float format, 's' + the
// string — shared by table sharding and shuffle repartitioning so both
// place equal keys identically. The bytes are formatted into a stack
// buffer and strings are hashed in place: no allocation per row.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

func hashInt(v int64) uint64 {
	var buf [24]byte
	return fnvBytes(fnvOffset, strconv.AppendInt(append(buf[:0], 'i'), v, 10))
}

func hashFloat(v float64) uint64 {
	var buf [32]byte
	return fnvBytes(fnvOffset, strconv.AppendFloat(append(buf[:0], 'f'), v, 'b', -1, 64))
}

func hashString(v string) uint64 {
	h := fnvBytes(fnvOffset, []byte{'s'})
	for i := 0; i < len(v); i++ {
		h = (h ^ uint64(v[i])) * fnvPrime
	}
	return h
}

// destinations returns, for each of the first n cells of key, the shard
// (of s) its hash places it on: one typed loop per vector.
func destinations(key *relational.Vector, n, s int) []int32 {
	out := make([]int32, n)
	switch key.T {
	case relational.Int:
		for i, v := range key.Ints[:n] {
			out[i] = int32(hashInt(v) % uint64(s))
		}
	case relational.Float:
		for i, v := range key.Floats[:n] {
			out[i] = int32(hashFloat(v) % uint64(s))
		}
	default:
		for i := range n {
			out[i] = int32(hashString(key.Str(i)) % uint64(s))
		}
	}
	return out
}
