package sql

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// bulkPinned renders what a bulk run charged, floats in their shortest
// round-trip form (so equal strings are equal bits): one line per phase,
// the modeled wall, and under a budget the spill report's partitions and
// bytes.
func bulkPinned(t *testing.T, res *Result) string {
	t.Helper()
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var b strings.Builder
	for _, p := range res.Net.Phases {
		if p.Chunks != 0 || p.ComputeSeconds != 0 || p.OverlapSeconds != 0 {
			t.Errorf("bulk phase %s charged pipeline stats: %+v", p.Name, p)
		}
		fmt.Fprintf(&b, "%s flows=%d bytes=%s sec=%s\n", p.Name, p.Flows, f(p.Bytes), f(p.Seconds))
	}
	fmt.Fprintf(&b, "wall=%s\n", f(res.Net.WallSeconds()))
	if res.Spill != nil {
		fmt.Fprintf(&b, "spill partitions=%d bytes=%d\n", res.Spill.Partitions, res.Spill.SpilledBytes)
	}
	return b.String()
}

// TestBulkPhasesPinned pins what the bulk engine (PipelineChunkRows = 0)
// charges, to the bit, for each movement shape: the whole phase list —
// name, flows, bytes, seconds, and no chunk, compute or overlap — plus the
// modeled wall, and once more under a 2% memory budget with the spill
// report's partitions and bytes. The literals were recorded at b57a32b,
// the last commit whose bulk engine had receivers of its own (a join build
// per shard, MergeBySeq, MergeAll), so they are what says that running the
// chunked receivers over one covering chunk moved no charge — the prebuilt
// join table reserving exactly what a per-shard build reserved included.
// One worker per host, so the floats repeat.
func TestBulkPhasesPinned(t *testing.T) {
	// 800 customers: a build side — whole, or one repartitioned bucket of it —
	// the 2% budget cannot hold, so both joins
	// go out of core.
	engine := func(cfg Config) *Engine {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		RegisterDemo(eng, 31, 2000, 800)
		return eng
	}
	const join = "SELECT s.order_id, s.price, c.segment FROM sales s JOIN customers c ON s.customer_id = c.customer_id"
	for _, c := range []struct {
		name, distJoin, sql string
		// want is the unbudgeted charge; the budgeted run must charge the
		// same and report wantSpill after it.
		want, wantSpill string
	}{
		{"broadcast-join", "broadcast", join,
			"broadcast#0 flows=12 bytes=71652 sec=1.64216e-05\n" +
				"gather flows=4 bytes=75981 sec=6.272e-05\n" +
				"wall=7.91416e-05\n",
			"spill partitions=28 bytes=122390\n"},
		{"repartition-join", "repartition", join,
			"shuffle#0 flows=24 bytes=67791 sec=1.779466666666667e-05\n" +
				"gather flows=4 bytes=75981 sec=6.27848e-05\n" +
				"wall=8.057946666666667e-05\n",
			"spill partitions=12 bytes=29570\n"},
		{"groupby-over-join", "auto",
			"SELECT c.segment, COUNT(*) AS n, SUM(s.price) AS v FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment",
			"shuffle#0 flows=24 bytes=56055 sec=1.4927466666666669e-05\n" +
				"gather flows=4 bytes=1876 sec=3.5008000000000004e-06\n" +
				"wall=1.8428266666666668e-05\n",
			"spill partitions=32 bytes=26054\n"},
		{"orderby-limit", "auto", "SELECT order_id, price FROM sales ORDER BY price DESC, order_id LIMIT 400",
			"gather flows=4 bytes=67200 sec=5.576e-05\n" +
				"wall=5.576e-05\n",
			"spill partitions=47 bytes=134232\n"},
	} {
		cfg := pipelineConfig(4, 0, c.distJoin)
		cfg.Topology = "leafspine"
		cfg.Workers = 1
		eng := engine(cfg)
		if got := bulkPinned(t, querySpill(t, eng, c.sql)); got != c.want {
			t.Errorf("%s: bulk charge moved:\n%s\nwant:\n%s", c.name, got, c.want)
		}
		sales, _ := eng.Table("sales")
		cfg.MemoryBudget = int64(sales.EncodedBytes() * 0.02)
		cfg.SpillTier = "ssd"
		if got := bulkPinned(t, querySpill(t, engine(cfg), c.sql)); got != c.want+c.wantSpill {
			t.Errorf("%s (2%% budget): bulk charge moved:\n%s\nwant:\n%s", c.name, got, c.want+c.wantSpill)
		}
	}
}
