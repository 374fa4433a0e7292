package dist

// The row-at-a-time movement primitives this package shipped before
// column vectors became the interchange, kept verbatim as the oracle the
// columnar primitives are diffed against (TestMovementMatchesRowReference,
// TestDestinationsMatchKeyReference). They read and write Relation.Rows
// only, so they run on row-built inputs.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/relational"
)

func refHashValue(v relational.Value) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range []byte(v.Key()) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func refShardRelation(rel *relational.Relation, shards int, strategy Strategy, keyCol int) []*relational.Relation {
	schema := append(append(relational.Schema{}, rel.Schema...),
		relational.Column{Name: SeqColName, Type: relational.Int})
	out := make([]*relational.Relation, shards)
	for i := range out {
		out[i] = relational.NewRelation(rel.Name, schema)
	}
	n := len(rel.Rows)
	for i, row := range rel.Rows {
		s := 0
		if strategy == HashShard {
			s = int(refHashValue(row[keyCol]) % uint64(shards))
		} else if n > 0 {
			s = i * shards / n
		}
		tagged := make(relational.Row, 0, len(row)+1)
		tagged = append(tagged, row...)
		tagged = append(tagged, relational.IntV(int64(i)))
		out[s].Rows = append(out[s].Rows, tagged)
	}
	return out
}

func refForEachBySeq(shards []*relational.Relation, seqCol int, fn func(shard, row int)) {
	pos := make([]int, len(shards))
	for {
		best := -1
		var bestSeq int64
		for i, s := range shards {
			if pos[i] >= len(s.Rows) {
				continue
			}
			if seq := s.Rows[pos[i]][seqCol].I; best < 0 || seq < bestSeq {
				best, bestSeq = i, seq
			}
		}
		if best < 0 {
			return
		}
		fn(best, pos[best])
		pos[best]++
	}
}

func refMergeBySeq(name string, shards []*relational.Relation, seqCol int, strip bool) *relational.Relation {
	schema := shards[0].Schema
	if strip {
		schema = schema[:seqCol]
	}
	out := relational.NewRelation(name, schema)
	refForEachBySeq(shards, seqCol, func(shard, row int) {
		r := shards[shard].Rows[row]
		if strip {
			r = r[:seqCol]
		}
		out.Rows = append(out.Rows, r)
	})
	return out
}

func refRepartition(shards []*relational.Relation, keyCol, seqCol int) ([]*relational.Relation, []Transfer) {
	s := len(shards)
	dests := make([]*relational.Relation, s)
	for i := range dests {
		dests[i] = relational.NewRelation(shards[0].Name, shards[0].Schema)
	}
	var transfers []Transfer
	for src, rel := range shards {
		bytesTo := make([]float64, s)
		for _, row := range rel.Rows {
			d := int(refHashValue(row[keyCol]) % uint64(s))
			dests[d].Rows = append(dests[d].Rows, row)
			if d != src {
				bytesTo[d] += row.EncodedBytes()
			}
		}
		for d, b := range bytesTo {
			if b > 0 {
				transfers = append(transfers, Transfer{Src: src, Dst: d, Bytes: b})
			}
		}
	}
	for _, d := range dests {
		rows := d.Rows
		sort.SliceStable(rows, func(i, j int) bool { return rows[i][seqCol].I < rows[j][seqCol].I })
	}
	return dests, transfers
}

func refBroadcast(shards []*relational.Relation, seqCol int, strip bool) (*relational.Relation, []Transfer) {
	merged := refMergeBySeq(shards[0].Name, shards, seqCol, strip)
	var transfers []Transfer
	for src, rel := range shards {
		b := rel.EncodedBytes()
		if b <= 0 {
			continue
		}
		for dst := range shards {
			if dst != src {
				transfers = append(transfers, Transfer{Src: src, Dst: dst, Bytes: b})
			}
		}
	}
	return merged, transfers
}

// refChunkCount is the oracle's chunk count, for the positive chunk sizes
// the differential tests draw (the clamping rule is chunk_table_test.go's).
func refChunkCount(rows, chunkRows int) int { return (rows + chunkRows - 1) / chunkRows }

func refChunkWindow(rel *relational.Relation, g, chunkRows int) (lo, hi int) {
	lo, hi = g*chunkRows, (g+1)*chunkRows
	if lo > len(rel.Rows) {
		lo = len(rel.Rows)
	}
	if hi > len(rel.Rows) {
		hi = len(rel.Rows)
	}
	return lo, hi
}

func refChunkWatermark(shards []*relational.Relation, seqCol, g, chunkRows int) (w int64, ok bool) {
	for _, rel := range shards {
		if hi := (g + 1) * chunkRows; hi < len(rel.Rows) {
			if seq := rel.Rows[hi][seqCol].I; !ok || seq < w {
				w, ok = seq, true
			}
		}
	}
	return w, ok
}

func refRepartitionChunks(shards []*relational.Relation, keyCol, seqCol, chunkRows int) (dests []*relational.Relation, chunks []Chunk) {
	dests, _ = refRepartition(shards, keyCol, seqCol)
	s := len(shards)
	maxRows := 0
	for _, sh := range shards {
		if len(sh.Rows) > maxRows {
			maxRows = len(sh.Rows)
		}
	}
	if maxRows == 0 {
		return dests, nil
	}
	n := refChunkCount(maxRows, chunkRows)
	chunks = make([]Chunk, n)
	for g := 0; g < n; g++ {
		var ts []Transfer
		for src, rel := range shards {
			lo, hi := refChunkWindow(rel, g, chunkRows)
			if lo == hi {
				continue
			}
			bytesTo := make([]float64, s)
			for _, row := range rel.Rows[lo:hi] {
				d := int(refHashValue(row[keyCol]) % uint64(s))
				b := row.EncodedBytes()
				chunks[g].ComputeBytes += b
				if d != src {
					bytesTo[d] += b
				}
			}
			for d, b := range bytesTo {
				if b > 0 {
					ts = append(ts, Transfer{Src: src, Dst: d, Bytes: b})
				}
			}
		}
		chunks[g].Transfers = ts
	}
	return dests, chunks
}

func refBroadcastChunks(shards []*relational.Relation, seqCol int, strip bool, chunkRows int) (merged *relational.Relation, chunks []Chunk, bounds []int) {
	merged = refMergeBySeq(shards[0].Name, shards, seqCol, strip)
	total := len(merged.Rows)
	if total == 0 {
		return merged, nil, nil
	}
	maxRows := 0
	for _, sh := range shards {
		if len(sh.Rows) > maxRows {
			maxRows = len(sh.Rows)
		}
	}
	n := refChunkCount(maxRows, chunkRows)
	chunks = make([]Chunk, n)
	bounds = make([]int, n)
	pos := make([]int, len(shards))
	for g := 0; g < n; g++ {
		var ts []Transfer
		for src, rel := range shards {
			lo, hi := refChunkWindow(rel, g, chunkRows)
			if lo == hi {
				continue
			}
			b := 0.0
			for _, row := range rel.Rows[lo:hi] {
				b += row.EncodedBytes()
			}
			chunks[g].ComputeBytes += b
			if b > 0 {
				for dst := range shards {
					if dst != src {
						ts = append(ts, Transfer{Src: src, Dst: dst, Bytes: b})
					}
				}
			}
		}
		chunks[g].Transfers = ts
		if w, ok := refChunkWatermark(shards, seqCol, g, chunkRows); ok {
			for i, rel := range shards {
				for pos[i] < len(rel.Rows) && rel.Rows[pos[i]][seqCol].I < w {
					pos[i]++
				}
			}
			b := 0
			for _, p := range pos {
				b += p
			}
			bounds[g] = b
		} else {
			bounds[g] = total
		}
	}
	return merged, chunks, bounds
}

func refGatherChunks(shards []*relational.Relation, seqCol, chunkRows int) (chunks []Chunk, bounds []int) {
	total := 0
	for _, sh := range shards {
		total += len(sh.Rows)
	}
	if total == 0 {
		return nil, nil
	}
	n := refChunkCount(total, chunkRows)
	srcBytes := make([][]float64, n)
	compute := make([]float64, n)
	for g := range srcBytes {
		srcBytes[g] = make([]float64, len(shards))
	}
	r := 0
	refForEachBySeq(shards, seqCol, func(shard, row int) {
		g := r / chunkRows
		r++
		b := shards[shard].Rows[row].EncodedBytes()
		srcBytes[g][shard] += b
		compute[g] += b
	})
	chunks = make([]Chunk, n)
	bounds = make([]int, n)
	for g := 0; g < n; g++ {
		var ts []Transfer
		for src, b := range srcBytes[g] {
			if b > 0 {
				ts = append(ts, Transfer{Src: src, Dst: Coordinator, Bytes: b})
			}
		}
		chunks[g] = Chunk{Transfers: ts, ComputeBytes: compute[g]}
		end := (g + 1) * chunkRows
		if end > total {
			end = total
		}
		bounds[g] = end
	}
	return chunks, bounds
}

type refSeqMerger struct {
	shards []*relational.Relation
	seqCol int
	pos    []int
	taken  int
}

func newRefSeqMerger(shards []*relational.Relation, seqCol int) *refSeqMerger {
	return &refSeqMerger{shards: shards, seqCol: seqCol, pos: make([]int, len(shards))}
}

func (m *refSeqMerger) Take(upto int, fn func(shard, row int)) {
	for m.taken < upto {
		best := -1
		var bestSeq int64
		for i, s := range m.shards {
			if m.pos[i] >= len(s.Rows) {
				continue
			}
			if seq := s.Rows[m.pos[i]][m.seqCol].I; best < 0 || seq < bestSeq {
				best, bestSeq = i, seq
			}
		}
		if best < 0 {
			return
		}
		fn(best, m.pos[best])
		m.pos[best]++
		m.taken++
	}
}

// TestDestinationsMatchKeyReference pins the allocation-free per-vector
// hash to the Key()-string hash it replaced, so no row changes shard and
// no modeled byte moves.
func TestDestinationsMatchKeyReference(t *testing.T) {
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 9, 10, 99, 100, -100, 1 << 53, -(1 << 53)}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // denormals
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1e21, 1e-7, 123456789.125}
	strs := []string{"", "a", "i0", "s", "héllo wörld", "数据移动", "\x00\xff", "a long key that does not fit any small buffer whatsoever"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ints = append(ints, int64(rng.Uint64()))
		floats = append(floats, math.Float64frombits(rng.Uint64()))
	}
	keys := []relational.Vector{
		{T: relational.Int, Ints: ints}, {T: relational.Float, Floats: floats}, {T: relational.String, Strs: strs},
	}
	for _, shards := range []int{1, 3, 4, 8} {
		for _, key := range keys {
			for i, d := range destinations(&key, key.Len(), shards) {
				if want := int32(refHashValue(key.Value(i)) % uint64(shards)); d != want {
					t.Errorf("destinations(%v)[%d] over %d shards = %d, reference %d", key.T, i, shards, d, want)
				}
			}
		}
	}
	for _, key := range keys {
		if n := testing.AllocsPerRun(20, func() { destinations(&key, key.Len(), 4) }); n != 1 {
			t.Errorf("destinations(%v) allocates %v times, want 1 (its result)", key.T, n)
		}
	}
}

// genRuns numbers the executions of the generated test in this process,
// so -count=N runs N different seeds.
var genRuns atomic.Int64

// genStreams returns seq-ascending per-shard streams over schema
// (key, pad String, x Float, #seq), row-built: a generated base relation
// sharded by the reference ShardRelation, then — like a join's fan-out —
// some rows repeated in place, which duplicates their seq tag inside one
// shard only — and sometimes with the tags coarsened into cross-shard
// ties.
func genStreams(rng *rand.Rand, shards int, keyT relational.Type) []*relational.Relation {
	n := []int{0, 1, shards - 1, rng.Intn(40), 50 + rng.Intn(250)}[rng.Intn(5)]
	pads := []string{"", "v", "héllo", "数据", "a somewhat longer payload string"}
	base := relational.NewRelation("g", relational.Schema{{Name: "k", Type: keyT}, {Name: "pad", Type: relational.String}, {Name: "x", Type: relational.Float}})
	for i := 0; i < n; i++ {
		var k relational.Value
		switch keyT {
		case relational.Int:
			k = relational.IntV(int64(rng.Intn(13)) - 6)
		case relational.Float:
			k = relational.FloatV([]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), 0.5, -2.25, 1e300}[rng.Intn(7)])
		default:
			k = relational.StringV(pads[rng.Intn(len(pads))])
		}
		base.MustAppend(relational.Row{k, relational.StringV(pads[rng.Intn(len(pads))]), relational.FloatV(rng.NormFloat64())})
	}
	strategy := Strategy(rng.Intn(2))
	out := refShardRelation(base, shards, strategy, 0)
	if rng.Intn(2) == 0 {
		for _, sh := range out {
			var rows []relational.Row
			for _, row := range sh.Rows {
				for k := 1 + rng.Intn(3)*rng.Intn(2); k > 0; k-- {
					rows = append(rows, row)
				}
			}
			sh.Rows = rows
		}
	}
	if k := int64(rng.Intn(4)); k > 1 {
		// Coarsen the tags so they tie across shards too. Shard streams
		// never do that, but it pins the tie-break rule — lower stream
		// first — that the merge and the repartition share with the rows.
		for _, sh := range out {
			for i, row := range sh.Rows {
				row = row.Clone()
				row[len(row)-1].I /= k
				sh.Rows[i] = row
			}
		}
	}
	return out
}

// columnBuilt rebuilds row-built relations in the column-built form.
func columnBuilt(rels []*relational.Relation) []*relational.Relation {
	out := make([]*relational.Relation, len(rels))
	for i, r := range rels {
		clone := relational.NewRelation(r.Name, r.Schema)
		clone.Rows = r.Rows
		out[i] = relational.NewColumnRelation(r.Name, r.Schema, clone.Columnar(), len(r.Rows))
	}
	return out
}

// sameRows compares two relations cell for cell, floats by bit pattern
// (NaN keys must survive movement too).
func sameRows(a, b *relational.Relation) error {
	ar, br := a.RowView(), b.RowView()
	if len(ar) != len(br) || a.Len() != len(ar) || b.Len() != len(br) {
		return fmt.Errorf("%d rows (Len %d) vs %d rows (Len %d)", len(ar), a.Len(), len(br), b.Len())
	}
	if !reflect.DeepEqual(a.Schema, b.Schema) {
		return fmt.Errorf("schema %v vs %v", a.Schema, b.Schema)
	}
	for i := range ar {
		if len(ar[i]) != len(br[i]) {
			return fmt.Errorf("row %d: width %d vs %d", i, len(ar[i]), len(br[i]))
		}
		for c := range ar[i] {
			x, y := ar[i][c], br[i][c]
			if x.T != y.T || x.I != y.I || x.S != y.S || math.Float64bits(x.F) != math.Float64bits(y.F) {
				return fmt.Errorf("row %d col %d: %v vs %v", i, c, x, y)
			}
		}
	}
	return nil
}

func sameRelations(a, b []*relational.Relation) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d relations vs %d", len(a), len(b))
	}
	for i := range a {
		if err := sameRows(a[i], b[i]); err != nil {
			return fmt.Errorf("relation %d: %w", i, err)
		}
	}
	return nil
}

// sameChunks compares transfer lists and compute bytes with ==.
func sameChunks(a, b []Chunk) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d chunks vs %d", len(a), len(b))
	}
	for g := range a {
		if a[g].ComputeBytes != b[g].ComputeBytes {
			return fmt.Errorf("chunk %d: compute bytes %v vs %v", g, a[g].ComputeBytes, b[g].ComputeBytes)
		}
		if err := sameTransfers(a[g].Transfers, b[g].Transfers); err != nil {
			return fmt.Errorf("chunk %d: %w", g, err)
		}
	}
	return nil
}

func sameTransfers(a, b []Transfer) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d transfers vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("transfer %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// TestMovementMatchesRowReference diffs every movement primitive against
// the row reference on generated streams — 1–8 shards, range and hash
// sharding, empty shards and empty relations, Int/Float/String keys,
// fan-out-duplicated seq runs, chunk sizes from 1 to beyond the input —
// for row-built and column-built inputs alike: identical rows in
// identical order, identical transfers, compute bytes and bounds.
func TestMovementMatchesRowReference(t *testing.T) {
	seed := genRuns.Add(1)
	rng := rand.New(rand.NewSource(seed))
	check := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, what, err)
		}
	}
	for iter := 0; iter < 60; iter++ {
		shards := 1 + rng.Intn(8)
		keyT := relational.Type(rng.Intn(3))
		rows := genStreams(rng, shards, keyT)
		seqCol := len(rows[0].Schema) - 1
		strip := rng.Intn(2) == 0

		wantMerged := refMergeBySeq("m", rows, seqCol, strip)
		wantDests, wantTransfers := refRepartition(rows, 0, seqCol)
		wantBcast, wantBcastTransfers := refBroadcast(rows, seqCol, strip)

		for _, form := range []struct {
			name string
			in   []*relational.Relation
		}{{"row-built", rows}, {"column-built", columnBuilt(rows)}} {
			tag := fmt.Sprintf("iter %d (%d shards, %v key, strip %v, %s)", iter, shards, keyT, strip, form.name)

			check(tag+": MergeBySeq", sameRows(MergeBySeq("m", form.in, seqCol, strip), wantMerged))

			dests, transfers := Repartition(form.in, 0, seqCol)
			check(tag+": Repartition rows", sameRelations(dests, wantDests))
			check(tag+": Repartition transfers", sameTransfers(transfers, wantTransfers))

			bcast, bts := Broadcast(form.in, seqCol, strip)
			check(tag+": Broadcast rows", sameRows(bcast, wantBcast))
			check(tag+": Broadcast transfers", sameTransfers(bts, wantBcastTransfers))

			for _, cr := range []int{1, 7, 1024, 1 << 20} {
				ctag := fmt.Sprintf("%s chunk %d", tag, cr)

				wd, wc := refRepartitionChunks(rows, 0, seqCol, cr)
				gd, gc := RepartitionChunks(form.in, 0, seqCol, cr)
				check(ctag+": RepartitionChunks rows", sameRelations(gd, wd))
				check(ctag+": RepartitionChunks chunks", sameChunks(gc, wc))

				wm, wbc, wb := refBroadcastChunks(rows, seqCol, strip, cr)
				gm, gbc, gb := BroadcastChunks(form.in, seqCol, strip, cr)
				check(ctag+": BroadcastChunks rows", sameRows(gm, wm))
				check(ctag+": BroadcastChunks chunks", sameChunks(gbc, wbc))
				if !reflect.DeepEqual(gb, wb) {
					t.Fatalf("seed %d: %s: BroadcastChunks bounds %v, reference %v", seed, ctag, gb, wb)
				}

				wgc, wgb := refGatherChunks(rows, seqCol, cr)
				ggc, ggb := GatherChunks(form.in, seqCol, cr)
				check(ctag+": GatherChunks chunks", sameChunks(ggc, wgc))
				if !reflect.DeepEqual(ggb, wgb) {
					t.Fatalf("seed %d: %s: GatherChunks bounds %v, reference %v", seed, ctag, ggb, wgb)
				}

				// The streaming merge, to each chunk bound: same visits in
				// the same order, and MergeInto lands MergeBySeq's rows.
				var want, got [][2]int
				ref, m := newRefSeqMerger(rows, seqCol), NewSeqMerger(form.in, seqCol)
				into := NewSeqMerger(form.in, seqCol)
				cols := relational.NewBatch(wantMerged.Schema, 0).Cols
				for _, b := range wgb {
					ref.Take(b, func(shard, row int) { want = append(want, [2]int{shard, row}) })
					m.Take(b, func(shard, row int) { got = append(got, [2]int{shard, row}) })
					into.MergeInto(cols, b)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: %s: SeqMerger.Take visits differ from the reference", seed, ctag)
				}
				check(ctag+": SeqMerger.MergeInto", sameRows(
					relational.NewColumnRelation("m", wantMerged.Schema, cols, len(want)), wantMerged))
			}
		}
	}
}

// TestShardRelationMatchesRowReference: the zero-copy range windows and
// the gathered hash shards hold exactly the rows the row-copying
// ShardRelation placed, for row-built and column-built tables.
func TestShardRelationMatchesRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		shards := 1 + rng.Intn(8)
		// A merged reference stream is a handy generated table: drop #seq.
		streams := genStreams(rng, shards, relational.Type(rng.Intn(3)))
		table := refMergeBySeq("t", streams, len(streams[0].Schema)-1, true)
		for _, strategy := range []Strategy{RangeShard, HashShard} {
			want := refShardRelation(table, shards, strategy, 0)
			for _, in := range []*relational.Relation{table, columnBuilt([]*relational.Relation{table})[0]} {
				st := ShardRelation(in, shards, strategy, 0)
				if err := sameRelations(st.Relations(), want); err != nil {
					t.Fatalf("iter %d, %d shards, %v: %v", iter, shards, strategy, err)
				}
				// An append of the rows from start on is billed to the
				// shards the reference placed them on, bit for bit.
				start := rng.Intn(table.Len() + 1)
				bytes := make([]float64, shards)
				for s, sh := range want {
					for _, row := range sh.Rows {
						if row[len(row)-1].I >= int64(start) {
							bytes[s] += row[:len(row)-1].EncodedBytes()
						}
					}
				}
				var wantTransfers []Transfer
				for s, b := range bytes {
					if b > 0 {
						wantTransfers = append(wantTransfers, Transfer{Src: Coordinator, Dst: s, Bytes: b})
					}
				}
				if err := sameTransfers(AppendTransfers(in, start, shards, strategy, 0), wantTransfers); err != nil {
					t.Fatalf("iter %d, %d shards, %v: AppendTransfers from row %d: %v", iter, shards, strategy, start, err)
				}
			}
		}
	}
}
