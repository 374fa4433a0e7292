package dist

import (
	"fmt"

	"repro/internal/relational"
)

// ChunkComputeBytesPerSec prices the modeled consumer compute of a
// landed chunk — hash-build inserts, partial-agg folds, gather merges —
// in bytes digested per second. 4 GiB/s is a memory-bandwidth-bound
// single-host rate consistent with the device and spill models: fast
// enough that bulk-synchronous runs stay network-dominated, slow enough
// that hiding it under in-flight flows is worth measuring.
const ChunkComputeBytesPerSec = 4 * float64(1<<30)

// GatherWeightBoost scales the final gather's flow weights over the
// query's own weight (RunPhaseMeasured/RunPipelined weightScale): the
// latency-critical tail phase competes hotter than the bulk shuffle
// chunks it coexists with under pipelining. A power of two, and applied
// uniformly to every flow of the phase, so a gather-only round's
// weighted max-min rates — share = cap/Σw scaled back by w — are
// bit-identical to the unboosted allocation; the boost only matters when
// gather flows share a round with other traffic, which is exactly the
// pipelined case it exists for.
const GatherWeightBoost = 4

// GatherClass tags final-gather flows for per-class fabric attribution
// and controller policies.
const GatherClass = "gather"

// Chunk is one pipelined sub-round of a movement phase: the flows that
// cross the fabric for this slice of the payload, plus the bytes the
// receiving side must digest once they land (priced at
// ChunkComputeBytesPerSec). ComputeBytes counts the whole slice — rows
// that stayed on their host still cost consumer compute even though they
// moved nothing.
type Chunk struct {
	Transfers    []Transfer
	ComputeBytes float64
}

// ComputeSeconds is the modeled time a consumer needs to digest the
// chunk once landed.
func (c Chunk) ComputeSeconds() float64 {
	return c.ComputeBytes / ChunkComputeBytesPerSec
}

// RunPipelined runs one movement phase as pipelined sub-rounds: chunk
// k's flows are admitted eagerly on the shared fabric (netsim
// sub-rounds, not full barriers) while a goroutine consumes chunk k−1,
// and the last chunk is consumed after its flows drain. consume(k) is
// called exactly once per chunk, in order, and never concurrently with
// itself — but it does run concurrently with the admission of chunk
// k+1, so it must not touch the transfer lists it shares with them. The
// engine's phases land nothing chunk by chunk (their receivers take the
// payload whole once the phase returns), so the modeled overlap never
// depends on what consume does; it is there for a caller that times a
// landing step against the model.
//
// The phase records measured overlap, not assumed: each chunk's network
// seconds come from the simulator, its compute seconds from
// ComputeBytes, and the phase's OverlapSeconds is the compute the
// pipeline hid under in-flight flows (zero for a single chunk, bounded
// by min(net, compute)). class/weightScale are per-phase QoS as in
// RunPhaseMeasured.
//
// On any error — cancellation, a failed submission, a failed consumer —
// the in-flight consumer goroutine is joined before returning, so
// callers never leak one.
func (q *QueryRun) RunPipelined(name string, chunks []Chunk, class string, weightScale float64, consume func(k int) error) error {
	var netSum, compSum, netDone, compDone float64
	flowsN := 0
	bytesSum := 0.0
	done := make(chan error, 1)
	inFlight := false
	join := func() error {
		if !inFlight {
			return nil
		}
		inFlight = false
		return <-done
	}
	for k := range chunks {
		if err := q.cancel.Err(); err != nil {
			join()
			return fmt.Errorf("dist: phase %s: %w", name, err)
		}
		reqs, bytes := q.flowReqs(chunks[k].Transfers, class, weightScale)
		if k > 0 {
			// Overlap: digest the previous chunk while this one drains.
			inFlight = true
			go func(kk int) { done <- consume(kk) }(k - 1)
		}
		sec, flows, err := q.party.SubmitEager(reqs)
		if err != nil {
			join()
			return fmt.Errorf("dist: phase %s chunk %d: %w", name, k, err)
		}
		if err := join(); err != nil {
			return fmt.Errorf("dist: phase %s chunk %d consume: %w", name, k-1, err)
		}
		q.attribute(flows)
		flowsN += len(reqs)
		bytesSum += bytes
		netSum += sec
		// Modeled timeline: network chunks serialize (netDone), chunk k's
		// compute starts when its bytes have landed and the previous
		// chunk's compute is done, whichever is later.
		netDone += sec
		if netDone > compDone {
			compDone = netDone
		}
		cs := chunks[k].ComputeSeconds()
		compDone += cs
		compSum += cs
	}
	if len(chunks) > 0 {
		if err := consume(len(chunks) - 1); err != nil {
			return fmt.Errorf("dist: phase %s chunk %d consume: %w", name, len(chunks)-1, err)
		}
	}
	overlap := netSum + compSum - compDone
	q.stats.Phases = append(q.stats.Phases, PhaseStat{
		Name: name, Flows: flowsN, Bytes: bytesSum, Seconds: netSum,
		Chunks: len(chunks), ComputeSeconds: compSum, OverlapSeconds: overlap,
	})
	q.stats.Flows += flowsN
	q.stats.BytesShuffled += bytesSum
	q.stats.NetSeconds += netSum
	q.stats.ComputeSeconds += compSum
	q.stats.OverlapSeconds += overlap
	return nil
}

// chunking sizes the chunks of a payload of rows > 0 rows: a chunk size of
// 0 or less (the bulk engine's setting), or at or above the payload, is one
// chunk covering it; anything else is n chunks of chunkRows rows, the last one
// short. Every chunker clamps through here before any other arithmetic, so
// a size near math.MaxInt cannot overflow a chunk count or a window bound.
func chunking(rows, chunkRows int) (size, n int) {
	if chunkRows <= 0 || chunkRows >= rows {
		return rows, 1
	}
	return chunkRows, (rows + chunkRows - 1) / chunkRows
}

// chunkWindow clips source-local chunk g's row window [g·chunkRows,
// (g+1)·chunkRows) to a source of n rows, returning an empty window for
// exhausted sources.
func chunkWindow(n, g, chunkRows int) (lo, hi int) {
	return min(g*chunkRows, n), min((g+1)*chunkRows, n)
}

// chunkWatermark returns the seq value below which every row has
// provably landed once all sources have shipped their local chunks
// 0..g: the minimum, across sources, of the first still-unshipped row's
// seq (shard streams are seq-ascending). ok is false when every source
// is exhausted — everything has landed.
func chunkWatermark(seqs [][]int64, g, chunkRows int) (w int64, ok bool) {
	for _, seq := range seqs {
		if hi := (g + 1) * chunkRows; hi < len(seq) {
			if !ok || seq[hi] < w {
				w, ok = seq[hi], true
			}
		}
	}
	return w, ok
}

// rowSizers returns each shard's row sizer.
func rowSizers(shards []*relational.Relation) []relational.RowSizer {
	out := make([]relational.RowSizer, len(shards))
	for i, sh := range shards {
		out[i] = relational.NewRowSizer(sh.Columnar())
	}
	return out
}

// seqVectors returns each shard's seqCol payload and the longest shard's
// row count.
func seqVectors(shards []*relational.Relation, seqCol int) (seqs [][]int64, maxRows int) {
	seqs = make([][]int64, len(shards))
	for i, sh := range shards {
		seqs[i] = sh.Columnar()[seqCol].Ints
		maxRows = max(maxRows, len(seqs[i]))
	}
	return seqs, maxRows
}

// RepartitionChunks is Repartition split into pipelined chunks: the
// destination relations are identical to the bulk path's (same rows, same
// seq order), and the chunks decide the charge of moving them. The
// movement is striped across sources — chunk g carries every source's
// local rows [g·chunkRows, (g+1)·chunkRows), so all source uplinks
// transmit in parallel within each sub-round, exactly as they do in the
// one bulk round — and the receiver takes its bucket whole once the phase
// is charged. A chunk size of 0 is one covering chunk, whose transfers
// are Repartition's; the per-(src,dst) bytes of any chunking sum to them
// exactly (byte counts are integers, so summation order cannot perturb
// them).
func RepartitionChunks(shards []*relational.Relation, keyCol, seqCol, chunkRows int) (dests []*relational.Relation, chunks []Chunk) {
	dests, place := repartition(shards, keyCol, seqCol)
	s := len(shards)
	seqs, maxRows := seqVectors(shards, seqCol)
	if maxRows == 0 {
		return dests, nil
	}
	chunkRows, n := chunking(maxRows, chunkRows)
	chunks = make([]Chunk, n)
	sizers := rowSizers(shards)
	for g := 0; g < n; g++ {
		var ts []Transfer
		compute := 0
		for src := range shards {
			lo, hi := chunkWindow(len(seqs[src]), g, chunkRows)
			if lo == hi {
				continue
			}
			bytesTo := make([]int, s)
			for r := lo; r < hi; r++ {
				b := sizers[src].Bytes(r)
				compute += b
				if d := int(place[src][r]); d != src {
					bytesTo[d] += b
				}
			}
			for d, b := range bytesTo {
				if b > 0 {
					ts = append(ts, Transfer{Src: src, Dst: d, Bytes: float64(b)})
				}
			}
		}
		chunks[g] = Chunk{Transfers: ts, ComputeBytes: float64(compute)}
	}
	return dests, chunks
}

// BroadcastChunksCols is Broadcast split into pipelined chunks; a chunk
// size of 0 is one covering chunk, whose transfers are Broadcast's.
// merged is the seq-merged build side at every chunk size; chunk g carries
// every source's local rows [g·chunkRows, (g+1)·chunkRows) to every
// other shard — striped across sources like RepartitionChunks, so all
// uplinks transmit in parallel within each sub-round. bounds[g] is the
// prefix of merged a consumer may digest after chunk g (the rows below
// the landed-seq watermark; counted against the unstripped shards, so
// it works whether or not merged kept the seq column). The per-source
// bytes across chunks sum to the per-source relation bytes exactly, and
// byte accounting is done pre-strip (the wire carries the seq column).
func BroadcastChunksCols(shards []*relational.Relation, seqCol int, strip bool, chunkRows int) (merged *relational.Relation, chunks []Chunk, bounds []int) {
	merged = MergeBySeq(shards[0].Name, shards, seqCol, strip)
	total := merged.Len()
	if total == 0 {
		return merged, nil, nil
	}
	seqs, maxRows := seqVectors(shards, seqCol)
	chunkRows, n := chunking(maxRows, chunkRows)
	chunks = make([]Chunk, n)
	bounds = make([]int, n)
	pos := make([]int, len(shards))
	sizers := rowSizers(shards)
	for g := 0; g < n; g++ {
		var ts []Transfer
		for src := range shards {
			lo, hi := chunkWindow(len(seqs[src]), g, chunkRows)
			if lo == hi {
				continue
			}
			b := float64(sizers[src].RangeBytes(lo, hi))
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
		if w, ok := chunkWatermark(seqs, g, chunkRows); ok {
			b := 0
			for i, seq := range seqs {
				for pos[i] < len(seq) && seq[pos[i]] < w {
					pos[i]++
				}
				b += pos[i]
			}
			bounds[g] = b
		} else {
			bounds[g] = total
		}
	}
	return merged, chunks, bounds
}

// BroadcastChunks is BroadcastChunksCols with merged's Rows filled
// (RowView), for callers that slice the merged build side as rows. The
// engine calls BroadcastChunksCols.
func BroadcastChunks(shards []*relational.Relation, seqCol int, strip bool, chunkRows int) (merged *relational.Relation, chunks []Chunk, bounds []int) {
	merged, chunks, bounds = BroadcastChunksCols(shards, seqCol, strip, chunkRows)
	merged.RowView()
	return merged, chunks, bounds
}

// GatherChunks splits the final gather of per-shard relations into seq-
// rank chunks: chunk g ships each shard's share of rows ranked
// [g·chunkRows, (g+1)·chunkRows) to the coordinator, and bounds[g] is
// the cumulative global row count landed through chunk g (feed it to a
// SeqMerger to reassemble the exact MergeBySeq order incrementally).
func GatherChunks(shards []*relational.Relation, seqCol, chunkRows int) (chunks []Chunk, bounds []int) {
	total := totalRows(shards)
	if total == 0 {
		return nil, nil
	}
	chunkRows, n := chunking(total, chunkRows)
	sizers := rowSizers(shards)
	chunks = make([]Chunk, n)
	bounds = make([]int, n)
	var m *SeqMerger
	if n > 1 {
		m = NewSeqMerger(shards, seqCol)
	}
	for g := 0; g < n; g++ {
		bounds[g] = min((g+1)*chunkRows, total)
		srcBytes := make([]int, len(shards))
		if m == nil {
			// One covering chunk ships every shard whole: no merge needed
			// to know which rows it carries.
			for i, sh := range shards {
				srcBytes[i] = sizers[i].RangeBytes(0, sh.Len())
			}
		} else {
			m.TakeRuns(bounds[g], func(shard, lo, hi int) {
				srcBytes[shard] += sizers[shard].RangeBytes(lo, hi)
			})
		}
		compute := 0
		var ts []Transfer
		for src, b := range srcBytes {
			compute += b
			if b > 0 {
				ts = append(ts, Transfer{Src: src, Dst: Coordinator, Bytes: float64(b)})
			}
		}
		chunks[g] = Chunk{Transfers: ts, ComputeBytes: float64(compute)}
	}
	return chunks, bounds
}

// PartialGatherChunks builds the pipelined gather of per-shard partial
// aggregations: chunk g carries each shard's g-th sub-partial (shards
// with fewer sub-partials simply stop contributing). Transfer and
// compute bytes use the partials' own encoded size, as the bulk gather
// does.
func PartialGatherChunks(subs [][]*relational.PartialAgg) []Chunk {
	n := 0
	for _, s := range subs {
		if len(s) > n {
			n = len(s)
		}
	}
	chunks := make([]Chunk, n)
	for g := 0; g < n; g++ {
		var ts []Transfer
		compute := 0.0
		for i, s := range subs {
			if g >= len(s) {
				continue
			}
			b := s[g].EncodedBytes()
			compute += b
			if b > 0 {
				ts = append(ts, Transfer{Src: i, Dst: Coordinator, Bytes: b})
			}
		}
		chunks[g] = Chunk{Transfers: ts, ComputeBytes: compute}
	}
	return chunks
}
