package dist

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/relational"
)

// seqStreams decodes a fuzz input into seq-ascending shard streams: data[0]
// picks 1–5 streams and data[1] the shape — even: runs of one, each tag
// dealt to a stream by the next byte (the interleaving of a hash
// placement); odd: long runs, each stream taking a contiguous block (a
// range placement). Every following byte adds one tag, above the last by
// its low bits, repeated in its stream by its high bits — so duplicate
// tags exist but never cross streams. Each row carries an Int payload
// naming its (stream, row), a Float, and a String coded on even streams
// and plain on odd ones.
func seqStreams(data []byte) []*relational.Relation {
	if len(data) < 2 {
		data = append(data, 0, 0)
	}
	k, rangeLike := 1+int(data[0])%5, data[1]%2 == 1
	body := data[2:]
	seqs := make([][]int64, k)
	tag := int64(0)
	for i, b := range body {
		tag += int64(b & 7)
		s := int(b>>3) % k
		if rangeLike {
			s = i * k / max(len(body), 1)
		}
		for range 1 + int(b>>6) {
			seqs[s] = append(seqs[s], tag)
		}
	}
	schema := relational.Schema{
		{Name: "id", Type: relational.Int}, {Name: "f", Type: relational.Float},
		{Name: "s", Type: relational.String}, {Name: SeqColName, Type: relational.Int},
	}
	out := make([]*relational.Relation, k)
	for s, seq := range seqs {
		n := len(seq)
		ids, fs, strs := make([]int64, n), make([]float64, n), make([]string, n)
		for r := range n {
			ids[r], fs[r], strs[r] = int64(s)<<32|int64(r), float64(r)/float64(s+1), fmt.Sprintf("s%d-%d", s, r%3)
		}
		str := relational.Vector{T: relational.String, Strs: strs}
		if s%2 == 0 {
			str = relational.StringVector(strs)
		}
		out[s] = relational.NewColumnRelation("m", schema, []relational.Vector{
			{T: relational.Int, Ints: ids}, {T: relational.Float, Floats: fs}, str, {T: relational.Int, Ints: seq},
		}, n)
	}
	return out
}

// refMergeOrder is the stable-sort reference of a seq merge: every (shard,
// row) ordered by tag, ties — only ever within one shard — by shard, then
// row.
func refMergeOrder(shards []*relational.Relation, seqCol int) [][2]int {
	var order [][2]int
	for s, sh := range shards {
		for r := range sh.Len() {
			order = append(order, [2]int{s, r})
		}
	}
	tag := func(p [2]int) int64 { return shards[p[0]].Columnar()[seqCol].Ints[p[1]] }
	slices.SortStableFunc(order, func(a, b [2]int) int {
		switch ta, tb := tag(a), tag(b); {
		case ta != tb:
			return int(min(max(ta-tb, -1), 1))
		case a[0] != b[0]:
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	return order
}

// checkSeqMerger holds the SeqMerger and the gathers built on it to the
// stable-sort reference: the maximal runs TakeRuns visits, MergeInto stopped at
// the bounds cut by chunkRows, and the per-shard bytes of GatherChunks at
// chunkRows and in bulk.
func checkSeqMerger(t *testing.T, shards []*relational.Relation, chunkRows int) {
	t.Helper()
	const seqCol = 3
	ref := refMergeOrder(shards, seqCol)
	total := len(ref)

	var visited [][2]int
	last := -1
	NewSeqMerger(shards, seqCol).TakeRuns(total, func(shard, lo, hi int) {
		if hi <= lo {
			t.Fatalf("empty run [%d, %d) of shard %d", lo, hi, shard)
		}
		// Runs are maximal: the next one always comes from another shard.
		if shard == last {
			t.Fatalf("shard %d's run [%d, %d) follows its own", shard, lo, hi)
		}
		last = shard
		for r := lo; r < hi; r++ {
			visited = append(visited, [2]int{shard, r})
		}
	})
	if !slices.Equal(visited, ref) {
		t.Fatalf("TakeRuns visited %v, reference %v", visited, ref)
	}

	m := NewSeqMerger(shards, seqCol)
	cols := m.Columns(shards[0].Schema[:seqCol], total)
	for upto := 0; ; upto += max(chunkRows, 1) {
		m.MergeInto(cols, min(upto, total))
		if upto >= total {
			break
		}
	}
	merged := relational.NewColumnRelation("m", shards[0].Schema[:seqCol], cols, total).RowView()
	for i, p := range ref {
		want := shards[p[0]].RowView()[p[1]][:seqCol]
		for c := range want {
			if want[c] != merged[i][c] {
				t.Fatalf("merged row %d col %d = %v, reference %v (shard %d row %d)", i, c, merged[i][c], want[c], p[0], p[1])
			}
		}
	}

	sizers := rowSizers(shards)
	for _, cr := range []int{chunkRows, 0} {
		chunks, bounds := GatherChunks(shards, seqCol, cr)
		if total == 0 {
			if chunks != nil || bounds != nil {
				t.Fatalf("chunk %d: an empty gather cut %d chunks", cr, len(chunks))
			}
			continue
		}
		lo := 0
		for g, ch := range chunks {
			want := make([]float64, len(shards))
			for _, p := range ref[lo:bounds[g]] {
				want[p[0]] += float64(sizers[p[0]].Bytes(p[1]))
			}
			got := make([]float64, len(shards))
			for _, tr := range ch.Transfers {
				if tr.Dst != Coordinator {
					t.Fatalf("chunk %d: gather transfer to %d", cr, tr.Dst)
				}
				got[tr.Src] += tr.Bytes
			}
			if !slices.Equal(got, want) {
				t.Fatalf("chunk %d (rows %d..%d): gathered %v bytes per shard, reference %v", cr, lo, bounds[g], got, want)
			}
			lo = bounds[g]
		}
		if lo != total {
			t.Fatalf("chunk %d: chunks cover %d of %d rows", cr, lo, total)
		}
	}
}

// FuzzSeqMerger drives the seq merge over random seq-ascending streams —
// interleaved row by row as a hash placement leaves them, or in long runs
// as a range placement does, with in-stream duplicate tags — against the
// stable-sort reference (checkSeqMerger). Corpus in
// testdata/fuzz/FuzzSeqMerger/.
func FuzzSeqMerger(f *testing.F) {
	f.Add([]byte{3, 0, 1, 9, 17, 2, 200, 3, 64, 8}, 2)
	f.Add([]byte{4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 5)
	f.Add([]byte{0, 0}, 0)
	f.Fuzz(func(t *testing.T, data []byte, chunkRows int) {
		if len(data) > 4096 {
			return
		}
		checkSeqMerger(t, seqStreams(data), chunkRows%64)
	})
}

// TestSeqMergerMatchesStableSort runs the fuzz target's check over a
// fixed sweep of shapes, stream counts and chunk sizes.
func TestSeqMergerMatchesStableSort(t *testing.T) {
	for k := range 5 {
		for shape := range 2 {
			data := []byte{byte(k), byte(shape)}
			for i := range 700 {
				data = append(data, byte(i*37+i*i*11))
			}
			for _, cr := range []int{0, 1, 3, 128, 5000} {
				checkSeqMerger(t, seqStreams(data), cr)
			}
		}
	}
}

// TestPlaceHashShardGathersLazily: a hash placement gathers a column for
// a shard only when it is first read, keeps it for the next reader, and
// prices every shard at what an eager copy of all its columns encodes to;
// its shards hold the rows the row reference places there. Concurrent
// readers of overlapping columns see the same vectors.
func TestPlaceHashShardGathersLazily(t *testing.T) {
	rel := relational.NewRelation("t", relational.Schema{
		{Name: "k", Type: relational.Int}, {Name: "s", Type: relational.String}, {Name: "f", Type: relational.Float},
	})
	for i := range 1000 {
		rel.MustAppend(relational.Row{relational.IntV(int64(i*i%97 - 40)), relational.StringV(fmt.Sprintf("x%d", i%13)), relational.FloatV(float64(i) / 7)})
	}
	st := ShardRelation(rel, 4, HashShard, 0)
	if st.Shards != nil || st.ShardCount() != 4 {
		t.Fatalf("hash placement: Shards %v, %d shards", st.Shards, st.ShardCount())
	}
	for s := range 4 {
		for c, g := range st.gathered[s] {
			if g != nil {
				t.Fatalf("shard %d column %d gathered before any read", s, c)
			}
		}
	}
	var wg sync.WaitGroup
	picks := make([][]*relational.Relation, 8)
	for i := range picks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range 4 {
				picks[i] = append(picks[i], st.Pick(s, []int{2, 0}))
			}
		}()
	}
	wg.Wait()
	for s := range 4 {
		if st.gathered[s][1] != nil {
			t.Fatalf("shard %d gathered column s, which nobody read", s)
		}
		for i := range picks {
			a, b := picks[0][s].Columnar(), picks[i][s].Columnar()
			if &a[0].Floats[0] != &b[0].Floats[0] {
				t.Fatalf("shard %d: two readers got two gathers of one column", s)
			}
		}
	}
	if err := sameRelations(st.Relations(), refShardRelation(rel, 4, HashShard, 0)); err != nil {
		t.Fatal(err)
	}
	for s, b := range st.Bytes() {
		if want := st.Relations()[s].EncodedBytes(); b != want {
			t.Fatalf("shard %d priced at %v bytes, its columns encode to %v", s, b, want)
		}
	}
}

// Relations returns every shard with every column of Rel plus #seq.
func (t *ShardedTable) Relations() []*relational.Relation {
	if t.Shards != nil {
		return t.Shards
	}
	all := make([]int, len(t.Rel.Schema))
	for c := range all {
		all[c] = c
	}
	out := make([]*relational.Relation, t.ShardCount())
	for s := range out {
		out[s] = t.Pick(s, all)
	}
	return out
}
