package dist

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/relational"
)

// chunkShape builds seq-ascending column shards of the given sizes over
// (k Int, s String, seq Int): row i of shard j carries seq i·len(sizes)+j,
// so the shards interleave in the global order.
func chunkShape(sizes ...int) []*relational.Relation {
	schema := relational.Schema{
		{Name: "k", Type: relational.Int},
		{Name: "s", Type: relational.String},
		{Name: SeqColName, Type: relational.Int},
	}
	shards := make([]*relational.Relation, len(sizes))
	for j, n := range sizes {
		rel := relational.NewRelation("t", schema)
		for i := 0; i < n; i++ {
			rel.MustAppend(relational.Row{
				relational.IntV(int64(i % 5)),
				relational.StringV(fmt.Sprint("v", i%3)),
				relational.IntV(int64(i*len(sizes) + j)),
			})
		}
		shards[j] = relational.NewColumnRelation("t", schema, rel.Columnar(), n)
	}
	return shards
}

// chunkPartials folds every shard into a partial aggregate grouped on k.
func chunkPartials(t *testing.T, shards []*relational.Relation) []*relational.PartialAgg {
	t.Helper()
	frags := make([]relational.BatchOp, len(shards))
	for i, sh := range shards {
		frags[i] = relational.NewBatchScan(sh)
	}
	aggs := []relational.AggSpec{{Fn: relational.CountAgg, Col: 0}, {Fn: relational.MinAgg, Col: 1}}
	partials, err := RunPartialAggs(frags, []int{0}, aggs, 2, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return partials
}

// gatherList is the bulk gather's transfer list: each shard's bytes to the
// coordinator, empty shards sending nothing.
func gatherList(bytes func(i int) float64, n int) []Transfer {
	var out []Transfer
	for i := 0; i < n; i++ {
		if b := bytes(i); b > 0 {
			out = append(out, Transfer{Src: i, Dst: Coordinator, Bytes: b})
		}
	}
	return out
}

// TestChunkersCoverAnyChunkSize: every chunker accepts every chunk size —
// the bulk engine's 0, a negative one, sizes at, just above and absurdly
// above the payload (math.MaxInt used to overflow the chunk count and
// panic in makeslice), and 1 — over empty, partly empty and skewed shards.
// The chunks' transfers always sum, pair by pair, to the bulk transfer
// list, and a size that covers the payload (≤ 0 or ≥ its rows) yields
// exactly one chunk carrying that list bit for bit — none when there is
// nothing to move, the bulk list then being empty too.
func TestChunkersCoverAnyChunkSize(t *testing.T) {
	const seqCol = 2
	maxLen := func(shards []*relational.Relation) (n int) {
		for _, sh := range shards {
			n = max(n, sh.Len())
		}
		return n
	}
	chunkers := []struct {
		name string
		// payload is the row count the chunker cuts by; bulk the transfer
		// list of the unchunked movement; cut the chunker under test.
		payload func(t *testing.T, shards []*relational.Relation) int
		bulk    func(t *testing.T, shards []*relational.Relation) []Transfer
		cut     func(t *testing.T, shards []*relational.Relation, chunkRows int) []Chunk
	}{
		{"repartition",
			func(t *testing.T, shards []*relational.Relation) int { return maxLen(shards) },
			func(t *testing.T, shards []*relational.Relation) []Transfer {
				_, ts := Repartition(shards, 0, seqCol)
				return ts
			},
			func(t *testing.T, shards []*relational.Relation, chunkRows int) []Chunk {
				_, chunks := RepartitionChunks(shards, 0, seqCol, chunkRows)
				return chunks
			}},
		{"broadcast",
			func(t *testing.T, shards []*relational.Relation) int { return maxLen(shards) },
			func(t *testing.T, shards []*relational.Relation) []Transfer {
				_, ts := Broadcast(shards, seqCol, true)
				return ts
			},
			func(t *testing.T, shards []*relational.Relation, chunkRows int) []Chunk {
				merged, chunks, bounds := BroadcastChunksCols(shards, seqCol, true, chunkRows)
				if len(bounds) > 0 && bounds[len(bounds)-1] != merged.Len() {
					t.Fatalf("final bound %d of %d merged rows", bounds[len(bounds)-1], merged.Len())
				}
				return chunks
			}},
		{"gather",
			func(t *testing.T, shards []*relational.Relation) int { return totalRows(shards) },
			func(t *testing.T, shards []*relational.Relation) []Transfer {
				return gatherList(func(i int) float64 { return shards[i].EncodedBytes() }, len(shards))
			},
			func(t *testing.T, shards []*relational.Relation, chunkRows int) []Chunk {
				chunks, bounds := GatherChunks(shards, seqCol, chunkRows)
				if len(bounds) > 0 && bounds[len(bounds)-1] != totalRows(shards) {
					t.Fatalf("final bound %d of %d rows", bounds[len(bounds)-1], totalRows(shards))
				}
				return chunks
			}},
		{"partial-gather",
			func(t *testing.T, shards []*relational.Relation) (n int) {
				for _, pa := range chunkPartials(t, shards) {
					n = max(n, pa.Groups())
				}
				return n
			},
			func(t *testing.T, shards []*relational.Relation) []Transfer {
				partials := chunkPartials(t, shards)
				return gatherList(func(i int) float64 { return partials[i].EncodedBytes() }, len(partials))
			},
			func(t *testing.T, shards []*relational.Relation, chunkRows int) []Chunk {
				partials := chunkPartials(t, shards)
				subs := make([][]*relational.PartialAgg, len(partials))
				for i, pa := range partials {
					subs[i] = pa.SplitChunks(chunkRows)
				}
				chunks := PartialGatherChunks(subs)
				if len(chunks) == 1 && len(chunks[0].Transfers) == 0 {
					// All-empty partials ship one chunk with nothing in it.
					return nil
				}
				return chunks
			}},
	}
	shapes := []struct {
		name  string
		sizes []int
	}{
		{"empty-shards", []int{0, 0, 0}},
		{"one-empty-shard", []int{10, 0, 7}},
		{"skewed-shards", []int{40, 1, 5, 2}},
	}
	for _, ck := range chunkers {
		for _, sh := range shapes {
			shards := chunkShape(sh.sizes...)
			rows := ck.payload(t, shards)
			bulk := ck.bulk(t, shards)
			bulkPairs := map[[2]int]float64{}
			for _, tr := range bulk {
				bulkPairs[[2]int{tr.Src, tr.Dst}] += tr.Bytes
			}
			for _, size := range []int{math.MaxInt, 1 << 30, rows + 1, rows, 0, -1, 1} {
				label := fmt.Sprintf("%s/%s/chunk=%d", ck.name, sh.name, size)
				chunks := ck.cut(t, shards, size)
				pairs := map[[2]int]float64{}
				for _, ch := range chunks {
					for _, tr := range ch.Transfers {
						if tr.Bytes <= 0 {
							t.Fatalf("%s: zero-byte transfer %+v", label, tr)
						}
						pairs[[2]int{tr.Src, tr.Dst}] += tr.Bytes
					}
				}
				if !reflect.DeepEqual(pairs, bulkPairs) {
					t.Fatalf("%s: chunk transfers sum to %v, bulk list is %v", label, pairs, bulkPairs)
				}
				if size > 0 && size < rows {
					continue
				}
				switch {
				case rows == 0 && len(chunks) != 0:
					t.Fatalf("%s: %d chunks for an empty payload", label, len(chunks))
				case rows > 0 && len(chunks) != 1:
					t.Fatalf("%s: %d chunks, want the one covering chunk", label, len(chunks))
				case rows > 0 && !reflect.DeepEqual(chunks[0].Transfers, bulk):
					t.Fatalf("%s: covering chunk carries %+v, bulk list is %+v", label, chunks[0].Transfers, bulk)
				}
			}
		}
	}
}
