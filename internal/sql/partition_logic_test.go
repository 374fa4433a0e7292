package sql

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/kernels"
	"repro/internal/relational"
)

// TestTernaryLogicPartitioning: a grouped COUNT, MIN and MAX over a table
// equals the recombination of the same statement over its WHERE p and
// WHERE NOT p halves, for generated predicates p: counts add, and the
// extremes take the lesser and the greater cell in the order MIN and MAX
// fold them (Floats in IEEE 754 total order, so a NaN or a signed zero
// recombines to the bit). It runs on the batch engine at Workers 1 and 4
// and on 4 shards, and no row engine takes part: the statement is its own
// oracle. Values are never NULL, so p and NOT p split the rows in two; a
// p that fails (division or modulo by zero) fails both halves.
func TestTernaryLogicPartitioning(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 1))
	var preds []string
	for range 16 {
		data := make([]byte, 40)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		g := &exprGen{data: data}
		preds = append(preds, g.gen(tBool, 3))
	}
	// Group keys of every type against extremes of every type: a coded
	// String, Ints of 2 and 16 values and a per-row id; Floats with NaN and
	// ±0, a plain String and an Int.
	var stmts []string
	for _, kv := range [][2]string{{"s", "f"}, {"e", "g"}, {"i", "p"}, {"j", "id"}, {"id % 50", "f"}} {
		sel := "SELECT " + kv[0] + " AS k, COUNT(*) AS n, MIN(" + kv[1] + ") AS lo, MAX(" + kv[1] + ") AS hi FROM t"
		by := " GROUP BY " + kv[0]
		for _, p := range preds {
			stmts = append(stmts, sel+by, sel+" WHERE "+p+by, sel+" WHERE NOT ("+p+")"+by)
		}
	}
	rels := []*relational.Relation{exprTable("t", 3000)}
	for _, shape := range []oracleShape{
		{"workers1", func(c *Config) { c.Workers = 1 }},
		{"workers4", func(c *Config) { c.Workers = 4 }},
		{"shards4", func(c *Config) { c.Distributed, c.Shards = true, 4 }},
	} {
		t.Run(shape.name, func(t *testing.T) {
			rows, errs := oracleRun(t, rels, stmts, shape.mutate)
			failed, split := 0, 0
			for i := 0; i < len(stmts); i += 3 {
				whole, yes, no := i, i+1, i+2
				if errs[whole] != nil {
					t.Fatalf("%s: %v", stmts[whole], errs[whole])
				}
				if (errs[yes] == nil) != (errs[no] == nil) {
					t.Fatalf("%s: %v, but %s: %v", stmts[yes], errs[yes], stmts[no], errs[no])
				}
				if errs[yes] != nil {
					failed++
					continue
				}
				if len(rows[yes]) > 0 && len(rows[no]) > 0 {
					split++
				}
				got := recombine(t, rows[yes], rows[no])
				want := groupsByKey(t, rows[whole])
				if len(got) != len(want) {
					t.Fatalf("%s: %d groups, its halves %d", stmts[whole], len(want), len(got))
				}
				for k, w := range want {
					g, ok := got[k]
					if !ok || g[0] != w[0] || !sameBits(g[1], w[1]) || !sameBits(g[2], w[2]) {
						t.Fatalf("%s: group %s is %v, its halves recombine to %v", stmts[whole], k, w, g)
					}
				}
			}
			if failed == len(stmts)/3 || split == 0 {
				t.Fatalf("%d of %d predicates failed and %d split a table: the predicates exercise one outcome only",
					failed, len(stmts)/3, split)
			}
		})
	}
}

// groupsByKey maps each (k, n, lo, hi) row's key to its count, low and
// high cells; the count is an Int cell.
func groupsByKey(t *testing.T, rows []relational.Row) map[string][3]relational.Value {
	t.Helper()
	out := make(map[string][3]relational.Value, len(rows))
	for _, r := range rows {
		if _, dup := out[r[0].Key()]; dup {
			t.Fatalf("group %v twice", r[0])
		}
		out[r[0].Key()] = [3]relational.Value{r[1], r[2], r[3]}
	}
	return out
}

// recombine folds two halves' groups into one: counts add, extremes take
// the lesser low and the greater high.
func recombine(t *testing.T, a, b []relational.Row) map[string][3]relational.Value {
	t.Helper()
	out := groupsByKey(t, a)
	for k, g := range groupsByKey(t, b) {
		o, ok := out[k]
		if !ok {
			out[k] = g
			continue
		}
		o[0] = relational.IntV(o[0].I + g[0].I)
		if extremeOrder(g[1], o[1]) < 0 {
			o[1] = g[1]
		}
		if extremeOrder(g[2], o[2]) > 0 {
			o[2] = g[2]
		}
		out[k] = o
	}
	return out
}

// extremeOrder orders two cells as MIN and MAX fold them: Floats in IEEE
// 754 total order, other cells by value.
func extremeOrder(a, b relational.Value) int {
	if a.T == relational.Float && b.T == relational.Float {
		return cmp.Compare(kernels.TotalOrderKeyFloat64(a.F), kernels.TotalOrderKeyFloat64(b.F))
	}
	c, err := relational.Compare(a, b)
	if err != nil {
		panic(fmt.Sprintf("extremes %v and %v do not compare: %v", a, b, err))
	}
	return c
}
