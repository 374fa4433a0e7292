// Example pipelined-sql demonstrates pipelined distributed execution —
// overlapping compute with network movement by splitting every bulk
// phase into chunked sub-rounds. A shuffle-heavy join runs on an
// 8-shard leaf-spine cluster across a chunk-size sweep, from the bulk
// engine (chunk size "infinity") down to 128-row chunks. At every
// chunk size the rows are identical — chunk boundaries come from
// deterministic #seq ranks, so chunking models cost, not semantics —
// while the per-query stats show the measured overlap: consumer
// compute (hash builds filling, partials folding, the coordinator
// merge advancing) hides under the next chunk's in-flight flows, and
// the modeled wall time drops below bulk's net+compute serial sum.
//
// Act 2 streams a full-table ordered gather through the coordinator's
// sequence merger, with the gather phase competing at boosted QoS
// weight, and closes with the degenerate case: one chunk larger than
// the payload replays the bulk phase bit-for-bit — same rows, same
// network floats, zero overlap.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/metrics"
	"repro/internal/sql"
)

// A fact table big enough that the repartition shuffle dominates the
// fabric, over a dimension small enough that the final gather is tiny:
// the shape where pipelining pays.
const (
	rows      = 1 << 17
	customers = 2000
	shards    = 8
)

const joinQuery = "SELECT c.segment, COUNT(*) AS n, SUM(s.price) AS v " +
	"FROM sales s JOIN customers c ON s.customer_id = c.customer_id " +
	"GROUP BY c.segment ORDER BY v DESC"

const gatherQuery = "SELECT order_id, price FROM sales ORDER BY order_id"

func engine(chunkRows int) *sql.Engine {
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = shards
	cfg.Topology = "leafspine"
	cfg.DistJoin = "repartition"
	cfg.PipelineChunkRows = chunkRows
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sql.RegisterDemo(eng, 42, rows, customers)
	return eng
}

func run(eng *sql.Engine, q string) *sql.Result {
	res, err := eng.Session().Query(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// signature fingerprints a result's rows for the parity assertion.
func signature(res *sql.Result) string {
	return fmt.Sprintf("%d rows / %v", res.Rows.Len(), res.Rows.RowView())
}

func main() {
	fmt.Println("== Act 1: shuffle-heavy join, chunk-size sweep ==")
	fmt.Printf("%d sales rows x %d customers, %d shards, leaf-spine, repartition join\n\n", rows, customers, shards)

	bulk := run(engine(0), joinQuery)
	ref := signature(bulk)
	bulkNet := bulk.Net.NetSeconds

	table := metrics.NewTable(fmt.Sprintf("join: %s", joinQuery),
		"chunk rows", "chunks", "net", "compute", "overlap", "wall", "speedup")
	table.AddRow("bulk", "-", metrics.FormatSeconds(bulkNet), "-", "-", "-", "-")
	for _, chunk := range []int{1 << 30, 8192, 1024, 128} {
		res := run(engine(chunk), joinQuery)
		if sig := signature(res); sig != ref {
			log.Fatalf("chunk %d changed the result:\n%s\nvs\n%s", chunk, sig, ref)
		}
		st := res.Net
		// Bulk's wall is its net time plus the same consumer compute done
		// serially after each phase; the pipelined run's compute sum is
		// chunk-invariant, so it prices that serial term exactly.
		bulkWall := bulkNet + st.ComputeSeconds
		name := fmt.Sprintf("%d", chunk)
		if chunk == 1<<30 {
			name = "2^30 (one chunk)"
		}
		chunks := 0
		for _, p := range st.Phases {
			chunks += p.Chunks
		}
		table.AddRow(name, fmt.Sprintf("%d", chunks),
			metrics.FormatSeconds(st.NetSeconds),
			metrics.FormatSeconds(st.ComputeSeconds),
			metrics.FormatSeconds(st.OverlapSeconds),
			metrics.FormatSeconds(st.WallSeconds()),
			fmt.Sprintf("%.2fx", bulkWall/st.WallSeconds()))
	}
	fmt.Println(table.Render())
	fmt.Println("rows identical at every chunk size; finer chunks hide more compute under in-flight flows")
	fmt.Println()

	fmt.Println("== Act 2: streamed ordered gather, and the bulk-identical edge ==")
	gBulk := run(engine(0), gatherQuery)
	gPipe := run(engine(1024), gatherQuery)
	if signature(gPipe) != signature(gBulk) {
		log.Fatal("pipelined gather changed the result")
	}
	fmt.Printf("gather %s into the coordinator's sequence merger (gather flows at %dx weight):\n",
		metrics.FormatBytes(gPipe.Net.BytesShuffled), 4)
	fmt.Printf("  chunk 1024: net %s, compute %s, overlap %s -> wall %s\n",
		metrics.FormatSeconds(gPipe.Net.NetSeconds), metrics.FormatSeconds(gPipe.Net.ComputeSeconds),
		metrics.FormatSeconds(gPipe.Net.OverlapSeconds), metrics.FormatSeconds(gPipe.Net.WallSeconds()))

	gOne := run(engine(1<<30), gatherQuery)
	if signature(gOne) != signature(gBulk) {
		log.Fatal("single-chunk gather changed the result")
	}
	if gOne.Net.NetSeconds != gBulk.Net.NetSeconds || gOne.Net.BytesShuffled != gBulk.Net.BytesShuffled {
		log.Fatalf("single-chunk run diverged from bulk: net %v vs %v, bytes %v vs %v",
			gOne.Net.NetSeconds, gBulk.Net.NetSeconds, gOne.Net.BytesShuffled, gBulk.Net.BytesShuffled)
	}
	if gOne.Net.OverlapSeconds != 0 {
		log.Fatalf("one chunk cannot overlap, got %v", gOne.Net.OverlapSeconds)
	}
	fmt.Printf("  chunk 2^30:  one chunk per phase replays bulk bit-identically (net %s, overlap 0)\n",
		metrics.FormatSeconds(gOne.Net.NetSeconds))
}
