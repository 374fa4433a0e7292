package sql

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/relational"
)

// explainStatements are the four statement classes of benchmark/spec.go
// plus a three-table join sized so the build-side rule swaps one join
// (regions is smaller than the running estimate) and not the other
// (sales is larger than customers), with an ON residue, a multi-table
// WHERE conjunct, HAVING and ORDER BY + LIMIT on top.
var explainStatements = []struct{ name, sql string }{
	{"scan", "SELECT order_id, price FROM sales WHERE year >= 2015 AND quantity <= 4"},
	{"join", "SELECT c.segment, COUNT(*) AS n, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2012 GROUP BY c.segment ORDER BY net DESC"},
	{"groupby", "SELECT customer_id, COUNT(*) AS n, SUM(price) AS revenue FROM sales GROUP BY customer_id ORDER BY revenue DESC, customer_id LIMIT 10"},
	{"topk", "SELECT order_id, price, quantity FROM sales WHERE year >= 2016 ORDER BY price DESC, order_id LIMIT 100"},
	{"threeway", "SELECT r.continent, c.segment, COUNT(*) AS n, SUM(s.price) AS total FROM customers c JOIN sales s ON c.customer_id = s.customer_id AND s.quantity > 1 JOIN regions r ON s.region = r.region WHERE s.year >= 2012 AND s.quantity + c.customer_id > 3 GROUP BY r.continent, c.segment HAVING COUNT(*) > 1 ORDER BY total DESC, 1, 2 LIMIT 5"},
}

// explainConfigs are the four executions whose plan text is pinned.
// Workers is fixed because the engine line prints the effective count.
func explainConfigs() []struct {
	name string
	cfg  Config
} {
	local := DefaultConfig()
	local.Workers = 2
	serial := DefaultConfig()
	serial.Parallel = false
	bulk := DefaultConfig()
	bulk.Workers = 2
	bulk.Distributed = true
	bulk.Shards = 4
	chunked := bulk
	chunked.PipelineChunkRows = 1024
	chunked.MemoryBudget = 64 << 10
	chunked.Devices = []string{"cpu", "gpu", "fpga"}
	chunked.Placement = "auto"
	return []struct {
		name string
		cfg  Config
	}{{"local-batch", local}, {"local-serial", serial}, {"dist-bulk", bulk}, {"dist-chunked", chunked}}
}

func regionsRelation() *relational.Relation {
	rel := relational.NewRelation("regions", relational.Schema{
		{Name: "region", Type: relational.String},
		{Name: "continent", Type: relational.String},
	})
	for _, r := range [][2]string{{"EU", "europe"}, {"NA", "america"}, {"APAC", "asia"}, {"LATAM", "america"}} {
		rel.MustAppend(relational.Row{relational.StringV(r[0]), relational.StringV(r[1])})
	}
	return rel
}

// TestExplainGolden pins the plan text of every statement under every
// configuration byte for byte against testdata/explain.golden (recorded
// when single-node and distributed statements still had a planner each;
// UPDATE_GOLDEN=1 rewrites it). It
// also executes each plan, so a golden can never describe a plan that
// does not run.
func TestExplainGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range explainConfigs() {
		eng, err := NewEngine(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		RegisterDemo(eng, 11, 3000, 80)
		eng.Register(regionsRelation())
		sess := eng.Session()
		for _, st := range explainStatements {
			text, err := sess.Explain(st.sql)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, st.name, err)
			}
			sb.WriteString("## " + c.name + " / " + st.name + "\n" + text + "\n\n")
			if _, err := sess.Query(context.Background(), st.sql); err != nil {
				t.Fatalf("%s %s: exec: %v", c.name, st.name, err)
			}
		}
	}
	const path = "testdata/explain.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("plan text differs from %s:\n%s", path, firstDiff(string(want), got))
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(w), len(g))
}
