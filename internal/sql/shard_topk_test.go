package sql

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/relational"
)

// shardTopKRuns numbers the executions of the generated test in this
// process, so -count=N runs N different seeds.
var shardTopKRuns atomic.Int64

// shardTopKTables generates a fact table whose sort keys tie heavily (k
// has five values, v three) and a dimension with duplicate join keys, so
// ORDER BY leans on arrival order everywhere and the join fans out —
// duplicating #seq tags inside a shard. The fact table leads with a
// unique id, the column hash sharding places rows by, so tied rows
// spread over every shard.
func shardTopKTables(rng *rand.Rand) []*relational.Relation {
	t := relational.NewRelation("t", relational.Schema{
		{Name: "id", Type: relational.Int}, {Name: "k", Type: relational.Int}, {Name: "v", Type: relational.Int}, {Name: "s", Type: relational.String}})
	for i, n := 0, 500+rng.Intn(400); i < n; i++ {
		t.MustAppend(relational.Row{relational.IntV(int64(i)), relational.IntV(int64(rng.Intn(5))), relational.IntV(int64(rng.Intn(3))),
			relational.StringV(fmt.Sprintf("r%d", i))})
	}
	d := relational.NewRelation("d", relational.Schema{{Name: "dk", Type: relational.Int}, {Name: "w", Type: relational.Int}})
	for i, n := 0, 6+rng.Intn(6); i < n; i++ {
		d.MustAppend(relational.Row{relational.IntV(int64(rng.Intn(3))), relational.IntV(int64(rng.Intn(4)))})
	}
	return []*relational.Relation{t, d}
}

// TestShardTopKMatchesOracle: ORDER BY + LIMIT k cuts every shard's
// stream to its k best rows below the gather, and the coordinator's
// top-k over what arrives is row for row the Parallel=false oracle's
// answer — over a scan and over a fanning-out join, for k from 0 through cuts that fall
// inside a run of tied rows to the whole input and beyond it, under range and hash sharding, bulk and
// chunked gathers, and with a worker killed mid-gather on a replicated
// cluster.
func TestShardTopKMatchesOracle(t *testing.T) {
	seed := shardTopKRuns.Add(1)
	tables := shardTopKTables(rand.New(rand.NewSource(seed)))
	// engine registers the tables, hash-placed on their first Int column
	// when hash is set.
	engine := func(hash bool, mutate func(*Config)) *Engine {
		cfg := DefaultConfig()
		mutate(&cfg)
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, rel := range tables {
			eng.Register(rel)
			if hash {
				if err := eng.Place(rel.Name, firstIntColumn(rel)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return eng
	}
	query := func(eng *Engine, label, q string) *relational.Relation {
		res, err := eng.Session().Query(context.Background(), q)
		if err != nil {
			t.Fatalf("seed %d: %s: %s: %v", seed, label, q, err)
		}
		return res.Rows
	}
	oracle := engine(false, func(cfg *Config) { cfg.Parallel = false })
	for _, c := range []struct {
		name, sql   string
		gatherPhase int
	}{
		{"scan", "SELECT k, v, s FROM t ORDER BY k DESC, v", 0},
		{"join", "SELECT t.k, d.w, t.s FROM t JOIN d ON t.v = d.dk ORDER BY d.w DESC, t.k", 1},
	} {
		rows := query(oracle, "oracle", c.sql).Len()
		for _, k := range []int{0, 1, 17, rows / 2, rows, rows + 7} {
			q := fmt.Sprintf("%s LIMIT %d", c.sql, k)
			want := query(oracle, "oracle", q)
			for _, hash := range []bool{false, true} {
				for _, chunk := range []int{0, 128, 1024} {
					label := fmt.Sprintf("%s k=%d hash=%v chunk=%d", c.name, k, hash, chunk)
					dist := func(cfg *Config) {
						cfg.Distributed, cfg.Shards, cfg.PipelineChunkRows = true, 4, chunk
					}
					sameRelation(t, fmt.Sprintf("seed %d: %s", seed, label), want, query(engine(hash, dist), label, q))
					if k == 0 || k > rows {
						continue
					}
					kill, err := lifecycle.ParsePlan(fmt.Sprintf("kill:1@%d:0.5", c.gatherPhase), 4)
					if err != nil {
						t.Fatal(err)
					}
					killed := engine(hash, func(cfg *Config) {
						dist(cfg)
						cfg.Replication, cfg.Faults = 2, kill
					})
					sameRelation(t, fmt.Sprintf("seed %d: %s killed", seed, label), want, query(killed, label+" killed", q))
					if killed.Lifecycle().Health().Dead != 1 {
						t.Fatalf("seed %d: %s: the kill at phase %d never landed", seed, label, c.gatherPhase)
					}
				}
			}
		}
	}
}
