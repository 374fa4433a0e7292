package sql

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
)

// Pipelined-execution acceptance suite: chunked movement must never
// change answers — any chunk size, any phase shape, any shard count —
// while measuring real compute/network overlap, keeping the bulk path
// bit-identical, and cancelling cleanly mid-chunk.

const pipelineRows = 1200

func pipelineConfig(shards, chunkRows int, distJoin string) Config {
	cfg := DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = shards
	cfg.Topology = "single"
	cfg.DistJoin = distJoin
	cfg.PipelineChunkRows = chunkRows
	return cfg
}

func pipelineEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(eng, 31, pipelineRows, 60)
	eng.Register(productsRelation())
	return eng
}

// TestPipelineParity sweeps chunk sizes (0 = the bulk "infinite chunk"
// engine) against every distributed phase shape — broadcast join,
// repartition join, grouped aggregation, sort+gather — on 2 and 8
// shards, asserting row-for-row identity with single-node execution.
// Run it under -race: chunk consumers overlap fabric admission by
// design.
func TestPipelineParity(t *testing.T) {
	cases := []struct {
		name     string
		query    string
		distJoin string
	}{
		{"join-repartition", "SELECT s.order_id, s.price, c.segment FROM sales s JOIN customers c ON s.customer_id = c.customer_id", "repartition"},
		{"join-broadcast", "SELECT s.order_id, s.price, c.segment FROM sales s JOIN customers c ON s.customer_id = c.customer_id", "broadcast"},
		{"group-by", "SELECT customer_id, COUNT(*) AS n, SUM(price) AS v FROM sales GROUP BY customer_id", "auto"},
		{"sort-gather", "SELECT order_id, price FROM sales ORDER BY price DESC, order_id LIMIT 400", "auto"},
	}
	ref, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	RegisterDemo(ref, 31, pipelineRows, 60)
	ref.Register(productsRelation())
	for _, tc := range cases {
		want, err := ref.Session().Query(context.Background(), tc.query)
		if err != nil {
			t.Fatalf("%s: single-node reference: %v", tc.name, err)
		}
		for _, shards := range []int{2, 8} {
			for _, chunk := range []int{0, 4096, 256, 1} {
				label := fmt.Sprintf("%s/%d-shards/chunk-%d", tc.name, shards, chunk)
				eng := pipelineEngine(t, pipelineConfig(shards, chunk, tc.distJoin))
				res, err := eng.Session().Query(context.Background(), tc.query)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				expectRowsEqual(t, label, want.Rows, res.Rows)
				if res.Net == nil {
					t.Fatalf("%s: missing net stats", label)
				}
				if chunk > 0 {
					if res.Net.ComputeSeconds <= 0 {
						t.Fatalf("%s: pipelined run recorded no chunk compute", label)
					}
					if res.Net.OverlapSeconds < 0 || res.Net.OverlapSeconds > res.Net.NetSeconds+res.Net.ComputeSeconds {
						t.Fatalf("%s: implausible overlap %v", label, res.Net.OverlapSeconds)
					}
					if w := res.Net.WallSeconds(); w <= 0 || w > res.Net.NetSeconds+res.Net.ComputeSeconds {
						t.Fatalf("%s: implausible wall %v", label, w)
					}
				} else if res.Net.ComputeSeconds != 0 || res.Net.OverlapSeconds != 0 {
					t.Fatalf("%s: bulk run charged pipeline stats: %+v", label, res.Net)
				}
			}
		}
	}
}

// TestPipelineSingleChunkBitIdentical: a chunk size larger than every
// payload degenerates to one chunk per phase — the very chunk the bulk
// engine cuts — whose flows replay the bulk phase's bit-for-bit on every
// movement shape (shuffle, broadcast, partial-aggregate gather, seq-merge
// gather below a top-k): same rows, same network floats, no overlap (there
// is nothing to overlap with). What differs is the charging rule: the
// pipelined engine prices the chunk's consumer compute, bulk does not.
func TestPipelineSingleChunkBitIdentical(t *testing.T) {
	const join = "SELECT s.order_id, s.price, c.segment FROM sales s JOIN customers c ON s.customer_id = c.customer_id"
	for _, tc := range []struct{ name, distJoin, q string }{
		{"repartition", "repartition", join},
		{"broadcast", "broadcast", join},
		{"aggregate-gather", "auto", "SELECT customer_id, COUNT(*) AS n, SUM(price) AS v FROM sales GROUP BY customer_id"},
		{"orderby-limit", "auto", "SELECT order_id, price FROM sales ORDER BY price DESC, order_id LIMIT 400"},
	} {
		bulk := pipelineEngine(t, pipelineConfig(4, 0, tc.distJoin))
		one := pipelineEngine(t, pipelineConfig(4, 1<<30, tc.distJoin))
		resBulk, err := bulk.Session().Query(context.Background(), tc.q)
		if err != nil {
			t.Fatal(err)
		}
		resOne, err := one.Session().Query(context.Background(), tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resBulk.Rows.RowView(), resOne.Rows.RowView()) {
			t.Fatalf("%s: single-chunk rows diverged from bulk", tc.name)
		}
		nb, no := resBulk.Net, resOne.Net
		if nb.NetSeconds != no.NetSeconds || nb.BytesShuffled != no.BytesShuffled || nb.Flows != no.Flows {
			t.Fatalf("%s: single-chunk net accounting diverged: bulk {%v %v %d} vs one-chunk {%v %v %d}",
				tc.name, nb.NetSeconds, nb.BytesShuffled, nb.Flows, no.NetSeconds, no.BytesShuffled, no.Flows)
		}
		if len(nb.Phases) != len(no.Phases) {
			t.Fatalf("%s: %d bulk phases vs %d single-chunk phases", tc.name, len(nb.Phases), len(no.Phases))
		}
		for i, pb := range nb.Phases {
			po := no.Phases[i]
			if pb.Name != po.Name || pb.Flows != po.Flows || pb.Bytes != po.Bytes || pb.Seconds != po.Seconds {
				t.Fatalf("%s: phase %d diverged: bulk %+v vs one-chunk %+v", tc.name, i, pb, po)
			}
			if pb.Chunks != 0 || po.Chunks != 1 {
				t.Fatalf("%s: phase %s ran as %d bulk / %d pipelined chunks, want 0 / 1", tc.name, pb.Name, pb.Chunks, po.Chunks)
			}
		}
		if no.OverlapSeconds != 0 {
			t.Fatalf("%s: one chunk cannot overlap, got %v", tc.name, no.OverlapSeconds)
		}
		if no.ComputeSeconds <= 0 || nb.ComputeSeconds != 0 {
			t.Fatalf("%s: consumer compute charged %v pipelined / %v bulk, want > 0 / 0", tc.name, no.ComputeSeconds, nb.ComputeSeconds)
		}
	}
}

// TestPipelineCancelMidChunk cancels a pipelined distributed query
// between chunks: the error must surface as the context's, the
// in-flight chunk consumer and every shard worker must wind down (no
// goroutine leaks), and the fabric slot must be withdrawn so a
// follow-up query on the same engine runs to completion.
func TestPipelineCancelMidChunk(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rows := 100_000
	for attempt := 0; attempt < 5; attempt++ {
		cfg := pipelineConfig(4, 32, "auto")
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		RegisterDemo(eng, 7, rows, 100)
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(2*time.Millisecond, cancel)
		_, qerr := eng.Session().Query(ctx, cancelQuery)
		timer.Stop()
		cancel()
		if qerr == nil {
			rows *= 2 // completed before the cancel landed: grow and retry
			continue
		}
		if !errors.Is(qerr, context.Canceled) {
			t.Fatalf("expected context.Canceled, got %v", qerr)
		}
		settleGoroutines(t, "pipeline-cancel", baseline)
		res, err := eng.Session().Query(context.Background(), cancelQuery)
		if err != nil || res.Rows.Len() == 0 {
			t.Fatalf("fabric wedged after cancelled pipelined query: %v", err)
		}
		return
	}
	t.Fatalf("query kept completing before cancellation up to %d rows", rows)
}

// flowRecorder is a pass-through netsim controller that records every
// pending flow it observes (Admit runs under the admission lock, so no
// further synchronization is needed).
type flowRecorder struct {
	flows []netsim.PendingFlow
}

func (r *flowRecorder) Admit(st *netsim.RoundState) []netsim.Decision {
	r.flows = append(r.flows, st.Pending...)
	return nil
}

// TestPipelineGatherWeightBoost: the final gather competes hotter than
// the bulk shuffles — its flows carry the "gather" class at
// GatherWeightBoost times the session weight, on the bulk and the
// pipelined path alike — while a session that declared its own QoS
// class keeps it (session identity wins over the phase tag).
func TestPipelineGatherWeightBoost(t *testing.T) {
	const q = "SELECT c.segment, COUNT(*) AS n, SUM(s.price) AS v FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment"
	for _, chunk := range []int{0, 256} {
		rec := &flowRecorder{}
		cfg := pipelineConfig(4, chunk, "repartition")
		cfg.Controller = rec
		eng := pipelineEngine(t, cfg)
		if _, err := eng.Session().Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		gather, shuffle := 0, 0
		for _, f := range rec.flows {
			switch f.Class {
			case "gather":
				gather++
				if f.Weight != 4 {
					t.Fatalf("chunk=%d: gather flow weight %v, want 4", chunk, f.Weight)
				}
			case "":
				shuffle++
				if f.Weight != 1 {
					t.Fatalf("chunk=%d: shuffle flow weight %v, want 1", chunk, f.Weight)
				}
			default:
				t.Fatalf("chunk=%d: unexpected class %q", chunk, f.Class)
			}
		}
		if gather == 0 || shuffle == 0 {
			t.Fatalf("chunk=%d: saw %d gather / %d shuffle flows", chunk, gather, shuffle)
		}
	}

	// A classed session keeps its own class on every phase.
	rec := &flowRecorder{}
	cfg := pipelineConfig(4, 256, "repartition")
	cfg.Controller = rec
	eng := pipelineEngine(t, cfg)
	sess := eng.Session()
	sess.Priority = "interactive"
	if _, err := sess.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	for _, f := range rec.flows {
		if f.Class != "interactive" {
			t.Fatalf("classed session leaked phase class %q", f.Class)
		}
	}
}

// TestPipelineBeatsBulk: on the shuffle-heavy join, the best chunk size
// of a sweep finishes at least 1.2x sooner on the modeled clock than the
// bulk engine, which pays the same chunk-invariant consumer compute
// strictly after its phases complete — and the win is measured overlap,
// not accounting. One worker, so the modeled floats repeat.
func TestPipelineBeatsBulk(t *testing.T) {
	const q = "SELECT c.segment, COUNT(*) AS n, SUM(s.price) AS v FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY v DESC"
	var bulkNet float64
	best := struct{ wall, overlap, compute float64 }{}
	for _, chunk := range []int{0, 1 << 30, 8192, 1024, 128} {
		cfg := pipelineConfig(8, chunk, "repartition")
		cfg.Topology = "leafspine"
		cfg.Workers = 1
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		RegisterDemo(eng, 42, 1<<15, 2000)
		res, err := eng.Session().Query(context.Background(), q)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if chunk == 0 {
			bulkNet = res.Net.NetSeconds
		} else if w := res.Net.WallSeconds(); best.wall == 0 || w < best.wall {
			best.wall, best.overlap, best.compute = w, res.Net.OverlapSeconds, res.Net.ComputeSeconds
		}
	}
	if best.overlap <= 0 {
		t.Fatalf("best chunk size measured no overlap: %+v", best)
	}
	if speedup := (bulkNet + best.compute) / best.wall; speedup < 1.2 {
		t.Fatalf("pipelined best wall %v only %.3fx over bulk net+compute %v, want >= 1.2x", best.wall, speedup, bulkNet+best.compute)
	}
}
