package sql

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/relational"
)

// Column vectors cross every fragment boundary shared, not copied: a
// range shard is a window of the registered table, a broadcast build side
// is one set of vectors. These tests hold the engine to the one rule that
// makes that safe — nobody writes to a vector it was handed.

// fanoutTables are three small tables whose a⋈b join fans out (duplicate
// b keys), so the joined stream carries duplicated #seq tags and must be
// re-sequenced before the b⋈c stage moves it.
func fanoutTables() []*relational.Relation {
	a := relational.NewRelation("a", relational.Schema{{Name: "ak", Type: relational.Int}, {Name: "av", Type: relational.Int}})
	b := relational.NewRelation("b", relational.Schema{{Name: "bk", Type: relational.Int}, {Name: "bv", Type: relational.Int}})
	c := relational.NewRelation("c", relational.Schema{{Name: "ck", Type: relational.Int}, {Name: "cv", Type: relational.Int}})
	for i := 0; i < 3000; i++ {
		a.MustAppend(relational.Row{relational.IntV(int64(i % 23)), relational.IntV(int64(i))})
	}
	for i := 0; i < 120; i++ {
		b.MustAppend(relational.Row{relational.IntV(int64(i % 23)), relational.IntV(int64(i % 7))})
	}
	for i := 0; i < 7; i++ {
		c.MustAppend(relational.Row{relational.IntV(int64(i)), relational.IntV(int64(i * 100))})
	}
	return []*relational.Relation{a, b, c}
}

// cloneVectors deep-copies a relation's columnar image.
func cloneVectors(rel *relational.Relation) []relational.Vector {
	cols := rel.Columnar()
	out := make([]relational.Vector, len(cols))
	for i := range cols {
		out[i] = relational.NewVector(cols[i].T, cols[i].Len())
		out[i].AppendRange(&cols[i], 0, cols[i].Len())
	}
	return out
}

// TestReseqLeavesRegisteredTablesIntact: a three-table join whose second
// stage re-sequences the joined stream, twice on one engine and once on a
// fresh one, returns the same rows every time, and the registered tables'
// column vectors are element for element what they were before. It fails
// if anything relabels #seq — or writes anything else — through a
// zero-copy shard window.
func TestReseqLeavesRegisteredTablesIntact(t *testing.T) {
	const q = "SELECT a.av, b.bv, c.cv FROM a JOIN b ON a.ak = b.bk JOIN c ON b.bv = c.ck"
	for _, movement := range []string{"repartition", "broadcast"} {
		for _, chunk := range []int{0, 64} {
			cfg := DefaultConfig()
			cfg.Distributed, cfg.Shards, cfg.DistJoin, cfg.PipelineChunkRows = true, 4, movement, chunk
			tables := fanoutTables()
			run := func() (*Engine, *relational.Relation) {
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, rel := range tables {
					eng.Register(rel)
				}
				res, err := eng.Session().Query(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				return eng, res.Rows
			}
			var before [][]relational.Vector
			for _, rel := range tables {
				before = append(before, cloneVectors(rel))
			}
			eng, first := run()
			res, err := eng.Session().Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			_, fresh := run()
			if first.Len() == 0 || !reflect.DeepEqual(first.RowView(), res.Rows.RowView()) || !reflect.DeepEqual(first.RowView(), fresh.RowView()) {
				t.Fatalf("%s chunk %d: reruns differ: %d, %d and %d rows", movement, chunk, first.Len(), res.Rows.Len(), fresh.Len())
			}
			for i, rel := range tables {
				if !reflect.DeepEqual(rel.Columnar(), before[i]) {
					t.Fatalf("%s chunk %d: table %s's column vectors changed under the query", movement, chunk, rel.Name)
				}
			}
		}
	}
}

// TestConcurrentSessionsShareShards: eight sessions run the benchmark's
// four statement classes at once over one cached shard placement — the
// same immutable windows of the registered tables — with an AppendRows
// between rounds that re-shards sales. Under -race this is the check that
// no fragment, movement or row view writes to shared vectors; every
// result must match the Parallel=false oracle of its round.
func TestConcurrentSessionsShareShards(t *testing.T) {
	classes := benchmarkClasses
	oracleCfg := DefaultConfig()
	oracleCfg.Parallel = false
	distCfg := DefaultConfig()
	distCfg.Distributed, distCfg.Shards = true, 4
	engines := make([]*Engine, 2)
	for i, cfg := range []Config{oracleCfg, distCfg} {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		RegisterDemo(eng, 7, 6000, 150)
		engines[i] = eng
	}
	oracle, eng := engines[0], engines[1]
	const sessions = 8
	for round := 0; round < 2; round++ {
		if round == 1 {
			extra := SalesRelation(99, 300, 150).RowView()
			for _, e := range engines {
				if _, err := e.AppendRows("sales", extra); err != nil {
					t.Fatal(err)
				}
				if sales, _ := e.Table("sales"); sales.Len() != 6000+300 {
					t.Fatalf("sales has %d rows after appending 300 to 6000", sales.Len())
				}
			}
		}
		want := make([]*relational.Relation, len(classes))
		for i, q := range classes {
			res, err := oracle.Session().Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res.Rows
		}
		got := make([][]*relational.Relation, sessions)
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sess := eng.Session()
				got[s] = make([]*relational.Relation, len(classes))
				for k := range classes {
					i := (s + k) % len(classes) // sessions start on different classes
					res, err := sess.Query(context.Background(), classes[i])
					if err != nil {
						errs[s] = fmt.Errorf("session %d class %d: %w", s, i, err)
						return
					}
					got[s][i] = res.Rows
				}
			}(s)
		}
		wg.Wait()
		for s := range got {
			if errs[s] != nil {
				t.Fatal(errs[s])
			}
			for i, q := range classes {
				sameRelation(t, fmt.Sprintf("round %d session %d: %s", round, s, q), want[i], got[s][i])
			}
		}
	}
}
