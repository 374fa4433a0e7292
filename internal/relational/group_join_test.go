package relational

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// pullCounter counts the batches pulled from an operator and from its
// partitions.
type pullCounter struct {
	BatchOp
	pulls *atomic.Int64
}

func (c *pullCounter) NextBatch() (*Batch, error) {
	c.pulls.Add(1)
	return c.BatchOp.NextBatch()
}

func (c *pullCounter) Partition(n int) []BatchOp {
	parts := c.BatchOp.(Partitioner).Partition(n)
	for i, p := range parts {
		parts[i] = &pullCounter{BatchOp: p, pulls: c.pulls}
	}
	return parts
}

// groupJoinCase is SELECT the dim columns keys, COUNT(*), SUM(fact.val)
// FROM fact JOIN dim ON fact[probeCol] = dim.k GROUP BY keys.
type groupJoinCase struct {
	dim, fact *Relation
	probeCol  int
	keys      []int
	workers   int
	budget    int64 // 0: none
}

// lower builds the case as the planner does — the join (dim builds), a
// projection, the aggregate — and makes it a group-join when gj is set.
// pulls counts the batches the aggregate pulls through the join; budget is
// the query's (nil: none).
func (c groupJoinCase) lower(t *testing.T, gj bool) (agg BatchOp, pulls *atomic.Int64, budget *MemoryBudget) {
	t.Helper()
	budget = diffBudget(c.budget)
	j, err := NewBatchHashJoin(NewBatchScan(c.dim), NewBatchScan(c.fact), 0, c.probeCol, c.workers)
	if err != nil {
		t.Fatal(err)
	}
	j.SetBudget(budget)
	var schema Schema
	var exprs []ProjExpr
	groupCols := make([]int, len(c.keys))
	for i, k := range c.keys {
		schema, exprs, groupCols[i] = append(schema, c.dim.Schema[k]), append(exprs, Pick(k)), i
	}
	schema, exprs = append(schema, Column{Name: "val", Type: Float}), append(exprs, Pick(len(c.dim.Schema)+2))
	pulls = &atomic.Int64{}
	pre, err := NewBatchProject(&pullCounter{BatchOp: j, pulls: pulls}, schema, exprs)
	if err != nil {
		t.Fatal(err)
	}
	aggs := []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: len(c.keys), Name: "s"}}
	g, err := NewBatchGroupAgg(pre, groupCols, aggs, c.workers)
	if err != nil {
		t.Fatal(err)
	}
	g.SetBudget(budget)
	if gj {
		if err := g.GroupJoin(j, c.keys, pre, []ProjExpr{Pick(2)}); err != nil {
			t.Fatal(err)
		}
	}
	return g, pulls, budget
}

// check runs the case with and without the group-join and requires the
// same rows, Floats by their bits, the same aggregate spill price (the
// one it returns) and the same query spill report; it reports whether
// the group-join folded the probe rows itself (pulled nothing through the
// join).
func (c groupJoinCase) check(t *testing.T) (folded bool, spill *SpillStats) {
	t.Helper()
	tree, _, treeBudget := c.lower(t, false)
	agg, pulls, budget := c.lower(t, true)
	requireIdenticalRows(t, collectRows(t, RowsOf(tree)), collectRows(t, RowsOf(agg)))
	if w, g := tree.Stats().Spill, agg.Stats().Spill; !reflect.DeepEqual(w, g) {
		t.Fatalf("the aggregate spilled %+v, the tree's %+v", g, w)
	}
	if w, g := treeBudget.Stats(), budget.Stats(); w != g {
		t.Fatalf("the query spilled %+v, the tree %+v", g, w)
	}
	return pulls.Load() == 0, agg.Stats().Spill
}

// groupJoinDim returns n dimension rows k = 0, 2, 4, … with a 3-valued
// label and a name unique per row; repeat names a key that appears
// twice (-1: none).
func groupJoinDim(n int, repeat int64) *Relation {
	dim := NewRelation("dim", Schema{{Name: "k", Type: Int}, {Name: "label", Type: String}, {Name: "name", Type: String}})
	for i := range n {
		k := int64(2 * i)
		dim.MustAppend(Row{IntV(k), StringV(fmt.Sprintf("l%d", i%3)), StringV(fmt.Sprintf("n%d", i))})
		if k == repeat {
			dim.MustAppend(Row{IntV(k), StringV("again"), StringV("again")})
		}
	}
	return dim
}

// Exercise the failure modes: each runs the join → aggregate tree,
// pulling batches through the join, with its rows.
func TestGroupJoinFallsBack(t *testing.T) {
	fact := randRel(3, 3*BatchSize+11)
	for _, c := range []struct {
		name string
		c    groupJoinCase
	}{
		{"repeated build key", groupJoinCase{dim: groupJoinDim(40, 10), fact: fact, probeCol: 3, keys: []int{1}, workers: 2}},
		{"first morsel has many groups", groupJoinCase{dim: groupJoinDim(2000, -1), fact: fact, probeCol: 0, keys: []int{2}, workers: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if folded, _ := c.c.check(t); folded {
				t.Fatal("the group-join folded the probe rows")
			}
		})
	}
}

// A unique build key, groups from the build side and few of them: the
// aggregate folds the probe rows itself, pulling nothing through the
// join, at every worker count and under a budget the table fits — one
// with room for the groups and one where the aggregate's generations
// spill — and answers what the tree does. One worker folds even many
// groups, as the tree then pre-aggregates too.
func TestGroupJoinFoldsProbeRows(t *testing.T) {
	fact, dim := randRel(4, 3*BatchSize+11), groupJoinDim(40, -1)
	tight := int64(dim.EncodedBytes()) + 100
	for _, c := range []groupJoinCase{
		{dim: dim, fact: fact, probeCol: 3, keys: []int{1}, workers: 1},
		{dim: dim, fact: fact, probeCol: 3, keys: []int{1}, workers: 2},
		{dim: dim, fact: fact, probeCol: 3, keys: []int{2, 1}, workers: 4},
		{dim: dim, fact: fact, probeCol: 3, keys: []int{1}, workers: 2, budget: 1 << 20},
		{dim: dim, fact: fact, probeCol: 3, keys: []int{2, 1}, workers: 1, budget: tight},
		{dim: groupJoinDim(2000, -1), fact: fact, probeCol: 0, keys: []int{2}, workers: 1},
		{dim: groupJoinDim(0, -1), fact: fact, probeCol: 3, keys: []int{1}, workers: 2},
	} {
		t.Run(fmt.Sprintf("dim%d/keys%v/w%d/budget%d", c.dim.Len(), c.keys, c.workers, c.budget), func(t *testing.T) {
			folded, spill := c.check(t)
			if !folded {
				t.Fatal("the aggregate pulled batches through the join")
			}
			if (c.budget == tight) != (spill != nil) {
				t.Fatalf("budget %d: the aggregate spilled %+v", c.budget, spill)
			}
		})
	}
}

// A build table over its budget goes to grace partitions, and the
// group-join still runs: its workers count their probe rows into the
// leaves as the join's probe streams would, so the rows and the query's
// spill report — partitions, bytes, seconds — are the tree's. Under late,
// whose keys the first morsel never matches, a worker at 4 drops that
// morsel while it looks for a head, and still counts it.
func TestGroupJoinGraceBuild(t *testing.T) {
	fact, dim := randRel(3, 3*BatchSize+11), groupJoinDim(40, -1)
	late := NewRelation("dim", dim.Schema)
	for _, row := range dim.RowView() {
		late.MustAppend(Row{IntV(row[0].I + 1500), row[1], row[2]})
	}
	for _, c := range []groupJoinCase{
		{dim: dim, fact: fact, probeCol: 3, keys: []int{1}, workers: 1, budget: 64},
		{dim: dim, fact: fact, probeCol: 3, keys: []int{1}, workers: 4, budget: 64},
		{dim: late, fact: fact, probeCol: 0, keys: []int{1}, workers: 4, budget: 64},
	} {
		t.Run(fmt.Sprintf("probe%d/w%d", c.probeCol, c.workers), func(t *testing.T) {
			if folded, _ := c.check(t); !folded {
				t.Fatal("the aggregate pulled batches through the join")
			}
			agg, _, budget := c.lower(t, true)
			collectRows(t, RowsOf(agg))
			if agg.(*BatchGroupAgg).gj.join.core.grace == nil {
				t.Fatal("the build table fit its budget")
			}
			if st := budget.Stats(); st.MaxDepth == 0 || st.ReadSeconds == 0 {
				t.Fatalf("no grace pass was priced: %+v", st)
			}
		})
	}
}
