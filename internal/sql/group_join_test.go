package sql

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/relational"
)

// groupJoinTables returns a fact table f and the dimensions it joins to.
// f's Float y holds quarters, so its sums are exact in any order and
// every worker count answers the row engine's bits. d is unique on k (the
// multiples of 7 below 1400 are missing, so some f rows match nothing),
// with a coded segment seg, a Float fk holding NaN,
// -0 and +0, an Int w and a unique name, which f.sk (coded) references.
// dup is d with one key repeated, and e is d's schema with no rows.
func groupJoinTables() []*relational.Relation {
	const nf = 3000
	dk, x, g := make([]int64, nf), make([]int64, nf), make([]int64, nf)
	y, sk := make([]float64, nf), make([]string, nf)
	for r := range nf {
		dk[r], x[r], g[r] = int64(r*37%1500), int64(r%50-10), int64(r%3)
		y[r] = float64(r%97) / 4
		sk[r] = fmt.Sprintf("n%d", r*11%1400)
	}
	f := relational.NewColumnRelation("f", relational.Schema{
		{Name: "dk", Type: relational.Int}, {Name: "sk", Type: relational.String},
		{Name: "x", Type: relational.Int}, {Name: "y", Type: relational.Float}, {Name: "g", Type: relational.Int},
	}, []relational.Vector{{T: relational.Int, Ints: dk}, relational.StringVector(sk),
		{T: relational.Int, Ints: x}, {T: relational.Float, Floats: y}, {T: relational.Int, Ints: g}}, nf)
	dim := func(name string, keys []int64) *relational.Relation {
		n := len(keys)
		seg, nm := make([]string, n), make([]string, n)
		fk, w := make([]float64, n), make([]int64, n)
		for r, k := range keys {
			seg[r] = []string{"AUTO", "BUILD", "HOUSE", "MACH"}[k*5%4]
			fk[r] = []float64{1.5, math.NaN(), math.Copysign(0, -1), 0, -2}[k%5]
			w[r], nm[r] = k%13-6, fmt.Sprintf("n%d", k)
		}
		return relational.NewColumnRelation(name, relational.Schema{
			{Name: "k", Type: relational.Int}, {Name: "seg", Type: relational.String},
			{Name: "fk", Type: relational.Float}, {Name: "w", Type: relational.Int}, {Name: "name", Type: relational.String},
		}, []relational.Vector{{T: relational.Int, Ints: keys}, relational.StringVector(seg),
			{T: relational.Float, Floats: fk}, {T: relational.Int, Ints: w}, relational.StringVector(nm)}, n)
	}
	var keys []int64
	for k := range int64(1400) {
		if k%7 != 0 {
			keys = append(keys, k)
		}
	}
	return []*relational.Relation{f, dim("d", keys), dim("dup", append(keys, 38)), dim("e", nil)}
}

// groupJoinFallbacks are statements that look like a group-join but must
// run the join → aggregate tree, each for its reason.
var groupJoinFallbacks = []struct{ name, sql string }{
	{"repeated build key", "SELECT dup.seg, COUNT(*) AS n, SUM(f.x) AS sx FROM f JOIN dup ON f.dk = dup.k GROUP BY dup.seg"},
	{"empty build side", "SELECT e.seg, COUNT(*) AS n, SUM(f.y) AS sy FROM f JOIN e ON f.dk = e.k GROUP BY e.seg"},
	{"group by build and probe", "SELECT d.seg, f.g, COUNT(*) AS n, SUM(f.y) AS sy FROM f JOIN d ON f.dk = d.k GROUP BY d.seg, f.g"},
	{"argument reads the build side", "SELECT d.seg, SUM(d.w) AS sw, SUM(f.x) AS sx FROM f JOIN d ON f.dk = d.k GROUP BY d.seg"},
	{"group by the join key", "SELECT d.k, COUNT(*) AS n, SUM(f.y) AS sy FROM f JOIN d ON f.dk = d.k GROUP BY d.k"},
	{"many groups", "SELECT d.name, COUNT(*) AS n, SUM(f.y) AS sy FROM f JOIN d ON f.dk = d.k GROUP BY d.name"},
	{"post-join filter", "SELECT d.seg, COUNT(*) AS n, SUM(f.y) AS sy FROM f JOIN d ON f.dk = d.k AND f.x > d.w GROUP BY d.seg"},
}

// groupJoinStmts are statements that run as group-joins when the build
// key is unique and the table fits the budget.
var groupJoinStmts = []struct{ name, sql string }{
	{"every aggregate", "SELECT d.seg, COUNT(*) AS n, SUM(f.x) AS sx, SUM(f.y * 2) AS sy, AVG(f.y) AS ay, MIN(f.y) AS lo, MAX(f.x) AS hi FROM f JOIN d ON f.dk = d.k GROUP BY d.seg"},
	{"Float key with NaN and zeros", "SELECT d.fk, COUNT(*) AS n, SUM(f.y) AS sy FROM f JOIN d ON f.dk = d.k GROUP BY d.fk"},
	{"two build keys", "SELECT d.fk, d.seg, COUNT(*) AS n, MIN(f.y) AS lo FROM f JOIN d ON f.dk = d.k GROUP BY d.seg, d.fk"},
	{"having and order", "SELECT d.seg, COUNT(*) AS n, SUM(f.y) AS sy FROM f JOIN d ON f.dk = d.k WHERE f.x > 5 GROUP BY d.seg HAVING COUNT(*) > 100 ORDER BY n DESC"},
	{"coded probe key", "SELECT d.seg, COUNT(*) AS n, SUM(f.x) AS sx FROM f JOIN d ON f.sk = d.name GROUP BY d.seg"},
	{"count only", "SELECT d.seg, COUNT(*) AS n FROM f JOIN d ON f.dk = d.k GROUP BY d.seg"},
}

// groupJoinShapes are the configurations the group-join is held to the
// row engine and the join → aggregate tree at: Workers 1, 2 and 4, a
// budget that holds the build table (the aggregate's groups are
// metered), and a 2% budget, under which the table goes to grace
// partitions and the tree runs.
func groupJoinShapes(rels []*relational.Relation) []oracleShape {
	return []oracleShape{
		{"workers1", func(c *Config) { c.Workers = 1 }},
		{"workers2", func(c *Config) { c.Workers = 2 }},
		{"workers4", func(c *Config) { c.Workers = 4 }},
		{"budget1MB", func(c *Config) { c.Workers, c.MemoryBudget, c.SpillTier = 1, 1<<20, "ssd" }},
		{"budget2pct", func(c *Config) {
			c.Workers, c.MemoryBudget, c.SpillTier = 1, int64(0.02*rels[0].EncodedBytes()), "ssd"
		}},
	}
}

// treeRun runs stmts as oracleRun does, with the group-join off: the join
// → aggregate tree.
func treeRun(t *testing.T, rels []*relational.Relation, stmts []string, mutate func(*Config)) ([]*Result, []error) {
	t.Helper()
	groupJoins = false
	defer func() { groupJoins = true }()
	return resultRun(t, rels, stmts, mutate)
}

// resultRun runs stmts on a batch engine over rels configured by mutate
// and returns each statement's whole result.
func resultRun(t *testing.T, rels []*relational.Relation, stmts []string, mutate func(*Config)) ([]*Result, []error) {
	t.Helper()
	cfg := DefaultConfig()
	mutate(&cfg)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range rels {
		eng.Register(rel)
	}
	out, errs := make([]*Result, len(stmts)), make([]error, len(stmts))
	sess := eng.Session()
	for i, q := range stmts {
		out[i], errs[i] = sess.Query(context.Background(), q)
	}
	return out, errs
}

// requireGroupJoinParity holds stmts, on every shape, to the row engine
// (the rows, Floats by their bits) and to the join → aggregate tree: the
// rows, the join's and the aggregate's row counts and whether they report
// a build, and the spill price. Under the 2% budget some statement must
// spill.
func requireGroupJoinParity(t *testing.T, rels []*relational.Relation, names, stmts []string) {
	t.Helper()
	want, errs := oracleRun(t, rels, stmts, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("row engine: %s: %v", stmts[i], err)
		}
	}
	for _, shape := range groupJoinShapes(rels) {
		got, errs := resultRun(t, rels, stmts, shape.mutate)
		tree, treeErrs := treeRun(t, rels, stmts, shape.mutate)
		spilled := false
		for i := range stmts {
			label := shape.name + ": " + names[i]
			if errs[i] != nil || treeErrs[i] != nil {
				t.Fatalf("%s: %v (tree: %v)", label, errs[i], treeErrs[i])
			}
			requireSameCells(t, label, want[i], got[i].Rows.RowView())
			requireSameCells(t, label+" (tree)", tree[i].Rows.RowView(), got[i].Rows.RowView())
			for _, tag := range []string{"join:0", "agg"} {
				g, w := got[i].Ops[tag], tree[i].Ops[tag]
				if g.RowsOut != w.RowsOut || (g.BuildNs > 0) != (w.BuildNs > 0) {
					t.Fatalf("%s: %s reports %d rows (built %v), the tree %d (built %v)",
						label, tag, g.RowsOut, g.BuildNs > 0, w.RowsOut, w.BuildNs > 0)
				}
			}
			if !reflect.DeepEqual(got[i].Spill, tree[i].Spill) {
				t.Fatalf("%s: spill %+v, the tree %+v", label, got[i].Spill, tree[i].Spill)
			}
			spilled = spilled || (got[i].Spill != nil && got[i].Spill.Active())
		}
		if shape.name == "budget2pct" && !spilled {
			t.Fatalf("%s: no statement spilled", shape.name)
		}
	}
}

// Exercise the failure modes: every fallback answers as the row engine
// and the tree do, on every shape.
func TestGroupJoinFallbacks(t *testing.T) {
	rels := groupJoinTables()
	var names, stmts []string
	for _, c := range groupJoinFallbacks {
		names, stmts = append(names, c.name), append(stmts, c.sql)
	}
	requireGroupJoinParity(t, rels, names, stmts)
}

// A group-join answers as the row engine and the tree do, on every shape.
func TestGroupJoinParity(t *testing.T) {
	rels := groupJoinTables()
	var names, stmts []string
	for _, c := range groupJoinStmts {
		names, stmts = append(names, c.name), append(stmts, c.sql)
	}
	requireGroupJoinParity(t, rels, names, stmts)
}

// A coded group key and a coded probe key whose Dicts grow between
// appends: the group-join answers as the row engine and the tree do
// before and after, new segments and new keys included.
func TestGroupJoinDictGrowth(t *testing.T) {
	rels := groupJoinTables()[:2]
	f, d := rels[0], rels[1]
	stmts := []string{groupJoinStmts[0].sql, groupJoinStmts[4].sql}
	names := []string{"before: " + groupJoinStmts[0].name, "before: " + groupJoinStmts[4].name}
	requireGroupJoinParity(t, rels, names, stmts)

	const more = 60
	keys, segs, fks, ws, nms := make([]int64, more), make([]string, more), make([]float64, more), make([]int64, more), make([]string, more)
	for i := range more {
		keys[i], segs[i], fks[i], ws[i], nms[i] = int64(2000+i), fmt.Sprintf("NEW%d", i%3), 0.25, 1, fmt.Sprintf("m%d", i)
	}
	d2, err := d.ExtendColumns([]relational.Vector{{T: relational.Int, Ints: keys}, relational.StringVector(segs),
		{T: relational.Float, Floats: fks}, {T: relational.Int, Ints: ws}, relational.StringVector(nms)}, more)
	if err != nil {
		t.Fatal(err)
	}
	dks, sks, xs, ys, gs := make([]int64, 4*more), make([]string, 4*more), make([]int64, 4*more), make([]float64, 4*more), make([]int64, 4*more)
	for i := range 4 * more {
		dks[i], sks[i], xs[i], ys[i], gs[i] = int64(2000+i%more), fmt.Sprintf("m%d", i%(2*more)), int64(i), float64(i)/8, 0
	}
	f2, err := f.ExtendColumns([]relational.Vector{{T: relational.Int, Ints: dks}, relational.StringVector(sks),
		{T: relational.Int, Ints: xs}, {T: relational.Float, Floats: ys}, {T: relational.Int, Ints: gs}}, 4*more)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		rel *relational.Relation
		col int
	}{{d, 1}, {d2, 1}, {f, 1}, {f2, 1}} {
		if c.rel.Columnar()[c.col].Dict == nil {
			t.Fatalf("%s (%d rows) column %d is not coded", c.rel.Name, c.rel.Len(), c.col)
		}
	}
	if d2.Columnar()[1].Dict == d.Columnar()[1].Dict || f2.Columnar()[1].Dict == f.Columnar()[1].Dict {
		t.Fatal("the appends did not grow the Dicts")
	}
	names = []string{"after: " + groupJoinStmts[0].name, "after: " + groupJoinStmts[4].name}
	requireGroupJoinParity(t, []*relational.Relation{f2, d2}, names, stmts)
}

// TestGroupJoinDevicesUnchanged: on one node at Workers 1 with devices
// cpu, gpu and fpga, a group-join dispatches the same morsels to the same
// devices as the join → aggregate tree, priced the same to the bit.
func TestGroupJoinDevicesUnchanged(t *testing.T) {
	rels := groupJoinTables()
	stmts := []string{groupJoinStmts[0].sql, groupJoinStmts[3].sql, groupJoinFallbacks[0].sql}
	for _, placement := range []string{"auto", "gpu", "fpga"} {
		mutate := func(c *Config) {
			c.Workers, c.Devices, c.Placement = 1, []string{"cpu", "gpu", "fpga"}, placement
		}
		got, _ := resultRun(t, rels, stmts, mutate)
		tree, _ := treeRun(t, rels, stmts, mutate)
		for i, q := range stmts {
			if len(got[i].Devices) == 0 || !reflect.DeepEqual(got[i].Devices, tree[i].Devices) {
				t.Fatalf("%s: %s: devices\n%+v\nthe tree\n%+v", placement, q, got[i].Devices, tree[i].Devices)
			}
			for tag, st := range tree[i].Ops {
				if !reflect.DeepEqual(st.Hetero, got[i].Ops[tag].Hetero) {
					t.Fatalf("%s: %s: %s placed %+v, the tree %+v", placement, q, tag, got[i].Ops[tag].Hetero, st.Hetero)
				}
			}
		}
	}
}
