package sql

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/relational"
)

// oracleShape is one engine configuration the row engine is held to.
type oracleShape struct {
	name   string
	mutate func(*Config)
}

// oracleShapes are the engine configurations the parity tests below hold
// to the row engine: one node at Workers 1 and 2, 4 shards with bulk and
// with 7-row chunked movement, and Workers 2 under a memory budget.
func oracleShapes(budget int64) []oracleShape {
	return []oracleShape{
		{"workers1", func(c *Config) { c.Workers = 1 }},
		{"workers2", func(c *Config) { c.Workers = 2 }},
		{"shards4", func(c *Config) { c.Distributed, c.Shards = true, 4 }},
		{"chunk7", func(c *Config) { c.Distributed, c.Shards, c.PipelineChunkRows = true, 4, 7 }},
		{"budget2pct", func(c *Config) { c.Workers, c.MemoryBudget, c.SpillTier = 2, budget, "ssd" }},
	}
}

// oracleRun runs stmts on an engine over rels configured by mutate (nil:
// the row engine), returning each statement's rows or error.
func oracleRun(t *testing.T, rels []*relational.Relation, stmts []string, mutate func(*Config)) ([][]relational.Row, []error) {
	t.Helper()
	cfg := DefaultConfig()
	if mutate == nil {
		cfg.Parallel = false
	} else {
		mutate(&cfg)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range rels {
		eng.Register(rel)
	}
	rows, errs := make([][]relational.Row, len(stmts)), make([]error, len(stmts))
	sess := eng.Session()
	for i, q := range stmts {
		res, err := sess.Query(context.Background(), q)
		if errs[i] = err; err == nil {
			rows[i] = res.Rows.RowView()
		}
	}
	return rows, errs
}

// requireSameCells compares two results cell by cell, Floats by their
// bits.
func requireSameCells(t *testing.T, label string, want, got []relational.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, row engine %d", label, len(got), len(want))
	}
	for r := range want {
		for c := range want[r] {
			if !sameBits(want[r][c], got[r][c]) {
				t.Fatalf("%s: row %d col %d: %v, row engine %v", label, r, c, got[r][c], want[r][c])
			}
		}
	}
}

// TestOrderByNaNFloatKeys: ORDER BY a Float column holding NaN orders
// alike on the row engine and every batch configuration — −0 ties +0 and
// a NaN sorts beyond ±Inf by its sign — so the first rows of the order
// and the NaN group's place are the same everywhere.
func TestOrderByNaNFloatKeys(t *testing.T) {
	rel := exprTable("t", 3000)
	stmts := []string{
		"SELECT id FROM t ORDER BY f, id LIMIT 7",
		"SELECT f, COUNT(*) AS n FROM t GROUP BY f ORDER BY f",
		"SELECT id, f FROM t WHERE e = 0 ORDER BY f DESC, id LIMIT 5",
	}
	want, errs := oracleRun(t, []*relational.Relation{rel}, stmts, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("row engine: %s: %v", stmts[i], err)
		}
	}
	if got := fmt.Sprint(want[0]); got != "[[2] [18] [34] [50] [66] [82] [98]]" {
		t.Fatalf("row engine: %s = %s, want the -Inf rows 2, 18, 34, …", stmts[0], got)
	}
	if last := want[1][len(want[1])-1][0]; !math.IsNaN(last.F) {
		t.Fatalf("row engine: %s ends with %v, want the NaN group last", stmts[1], last)
	}
	if first := want[2][0][1]; !math.IsNaN(first.F) {
		t.Fatalf("row engine: %s starts with %v, want a NaN first in descending order", stmts[2], first)
	}
	for _, shape := range oracleShapes(int64(0.02 * rel.EncodedBytes())) {
		got, errs := oracleRun(t, []*relational.Relation{rel}, stmts, shape.mutate)
		for i, q := range stmts {
			if errs[i] != nil {
				t.Fatalf("%s: %s: %v", shape.name, q, errs[i])
			}
			requireSameCells(t, shape.name+": "+q, want[i], got[i])
		}
	}
}

// selDims returns the tables the generated statements join exprTable to:
// d, unique on k (every t row matches at most once: the probe keeps its
// vectors under a selection), and fan, whose keys repeat (the probe
// gathers).
func selDims() []*relational.Relation {
	n := 1200
	k, w := make([]int64, n), make([]int64, n)
	seg := make([]string, n)
	for r := range n {
		k[r], w[r], seg[r] = int64(3*r), int64(r%17-8), []string{"AUTO", "BUILD", "HOUSE", "MACH"}[r*7%4]
	}
	d := relational.NewColumnRelation("d", relational.Schema{{Name: "k", Type: relational.Int}, {Name: "seg", Type: relational.String}, {Name: "w", Type: relational.Int}},
		[]relational.Vector{{T: relational.Int, Ints: k}, relational.StringVector(seg), {T: relational.Int, Ints: w}}, n)
	fk := []int64{0, 7, -1, 2015, 7, 0, 100, 3}
	fseg := []string{"x", "y", "z", "x", "w", "y", "z", "v"}
	fan := relational.NewColumnRelation("fan", relational.Schema{{Name: "fk", Type: relational.Int}, {Name: "fseg", Type: relational.String}},
		[]relational.Vector{{T: relational.Int, Ints: fk}, {T: relational.String, Strs: fseg}}, len(fk))
	return []*relational.Relation{d, fan}
}

// TestSelectedBenchShapedParity: generated statements shaped like the
// benchmark's classes — WHERE, then a scan projection, a JOIN and GROUP
// BY, a GROUP BY … ORDER BY … LIMIT, or an ORDER BY … LIMIT over NaN
// Float keys — answer on every batch configuration what the row engine
// answers: the same rows, Floats bit-equal, and a failure where it fails.
// Every WHERE hands the operators above it selected batches. Beside the
// 2% budget, budgets of 48 and 256 bytes (shapes budget48/budget256, so
// `-run 'SelectedBenchShapedParity/budget'` runs the budgeted ones) hold
// a row or a few: the top-k's heap reservation fails, and the join's
// grace pricing recurses to its depth cap. The GROUP BY id statement has
// a group per row or two (the fan join repeats some), so its aggregate
// takes the key-partitioned path where the others pre-aggregate; with
// shapes workers3 and workers4 beside workers1 and workers2, `-run
// 'SelectedBenchShapedParity/workers'` holds both paths at every worker
// count to the row engine, Float sums and extremes bit for bit.
func TestSelectedBenchShapedParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 1))
	var stmts []string
	for range 12 {
		data := make([]byte, 40)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		g := &exprGen{data: data}
		where := g.gen(tBool, 3)
		stmts = append(stmts,
			"SELECT id, "+g.gen(tInt, 3)+" AS a, "+g.gen(tFloat, 2)+" AS b FROM t WHERE "+where,
			"SELECT seg, COUNT(*) AS n, SUM(w) AS sw, SUM("+g.gen(tInt, 2)+") AS x FROM t JOIN d ON t.id = d.k WHERE "+where+" GROUP BY seg ORDER BY n DESC, seg",
			"SELECT fseg, COUNT(*) AS n, SUM(e) AS se FROM t JOIN fan ON t.i = fan.fk WHERE "+where+" GROUP BY fseg ORDER BY fseg",
			"SELECT s, COUNT(*) AS n, SUM("+g.gen(tInt, 2)+") AS x FROM t WHERE "+where+" GROUP BY s ORDER BY x DESC, s LIMIT 3",
			"SELECT id, f, "+g.gen(tFloat, 2)+" AS b FROM t WHERE "+where+" ORDER BY b DESC, f, id LIMIT 17",
			"SELECT id, g, p FROM t WHERE "+where+" ORDER BY g, id LIMIT 9",
			"SELECT id, COUNT(*) AS n, SUM("+g.gen(tFloat, 2)+") AS x, MIN(f) AS lo, MAX(p) AS hi FROM t JOIN fan ON t.i = fan.fk WHERE "+where+" GROUP BY id")
	}
	rels := append([]*relational.Relation{exprTable("t", 3000)}, selDims()...)
	want, wantErrs := oracleRun(t, rels, stmts, nil)
	shapes := oracleShapes(int64(0.02 * rels[0].EncodedBytes()))
	for _, budget := range []int64{48, 256} {
		shapes = append(shapes, oracleShape{fmt.Sprintf("budget%d", budget), func(c *Config) {
			c.Workers, c.MemoryBudget, c.SpillTier = 2, budget, "ssd"
		}})
	}
	for _, workers := range []int{3, 4} {
		shapes = append(shapes, oracleShape{fmt.Sprintf("workers%d", workers), func(c *Config) { c.Workers = workers }})
	}
	failed, runs := 0, 0
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			got, errs := oracleRun(t, rels, stmts, shape.mutate)
			for i, q := range stmts {
				label := shape.name + ": " + q
				switch {
				case (errs[i] == nil) != (wantErrs[i] == nil):
					t.Fatalf("%s: error %v, row engine %v", label, errs[i], wantErrs[i])
				case errs[i] == nil:
					requireSameCells(t, label, want[i], got[i])
				case shape.name == "workers1" && errs[i].Error() != wantErrs[i].Error():
					t.Fatalf("%s: error %v, row engine %v", label, errs[i], wantErrs[i])
				default:
					failed++
				}
			}
			runs += len(stmts)
		})
	}
	if runs > 0 && (failed == 0 || failed == runs) {
		t.Fatalf("%d of %d runs failed: the statements exercise one outcome only", failed, runs)
	}
}
