package wire

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sql"
)

// classStatements are the four statement classes of benchmark/spec.go
// (a nested module this package cannot import), text for text.
var classStatements = []struct{ name, sql string }{
	{"scan", "SELECT order_id, price FROM sales WHERE year >= 2015 AND quantity <= 4"},
	{"join", "SELECT c.segment, COUNT(*) AS n, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2012 GROUP BY c.segment ORDER BY net DESC"},
	{"groupby", "SELECT customer_id, COUNT(*) AS n, SUM(price) AS revenue FROM sales GROUP BY customer_id ORDER BY revenue DESC, customer_id LIMIT 10"},
	{"topk", "SELECT order_id, price, quantity FROM sales WHERE year >= 2016 ORDER BY price DESC, order_id LIMIT 100"},
}

// classGoldens pins sha256(Fingerprint) of each class on
// RegisterDemo(seed 7, 20000 sales, 2000 customers) per worker count,
// recorded on the row-boxing operators before the typed batch path
// replaced them. Fingerprint renders floats exactly, so these hold only
// while the static-partition fold order — and with it every float sum —
// stays bit-identical for a given worker count. The groupby class has
// many groups, so its aggregate folds by key partition, every group's
// rows in serial order: its fingerprint is the one-worker one at every
// worker count. The join class (five groups) pre-aggregates per worker,
// and its float sums round per worker count.
var classGoldens = map[int]map[string]string{
	1: {
		"scan":    "0afed3c5c7a01e5384582f676a47c9614534b92ff8e3a4b06d39411b05b2d476",
		"join":    "cefbc357f3fac4c47f35060ef4306298379a7f4c7208413d5c90593678fccf63",
		"groupby": "69660aabd7a953052b72c593a220f7b700cc9fc09d9833c7655c5a79566f2a29",
		"topk":    "035477d44830627fda12820c69e5711abbbe69ee9f7e19616ea6ecfba2a0d9ec",
	},
	2: {
		"scan":    "0afed3c5c7a01e5384582f676a47c9614534b92ff8e3a4b06d39411b05b2d476",
		"join":    "13eb0d9164b09e451846088b4d218e0c97d3f5fb4aa6fca77ee24e41d8d03b96",
		"groupby": "69660aabd7a953052b72c593a220f7b700cc9fc09d9833c7655c5a79566f2a29",
		"topk":    "035477d44830627fda12820c69e5711abbbe69ee9f7e19616ea6ecfba2a0d9ec",
	},
	4: {
		"scan":    "0afed3c5c7a01e5384582f676a47c9614534b92ff8e3a4b06d39411b05b2d476",
		"join":    "42ed761e8139206fc3efc44053782154868cc340ec44e2ce9df1b7d008d748c3",
		"groupby": "69660aabd7a953052b72c593a220f7b700cc9fc09d9833c7655c5a79566f2a29",
		"topk":    "035477d44830627fda12820c69e5711abbbe69ee9f7e19616ea6ecfba2a0d9ec",
	},
}

// distGoldens pins the same fingerprints on the distributed engine
// (4 shards) under bulk movement and under chunked movement with a
// memory budget and devices, recorded when single-node and distributed
// statements still had a planner each (the last three one PR later). Each shard folds its partial
// aggregate in one stream, so the worker count does not move the sums,
// and the budget only meters the aggregate, so chunked movement answers
// the bulk groupby bit for bit.
var distGoldens = map[string]map[string]string{
	"bulk": {
		"scan":    "0afed3c5c7a01e5384582f676a47c9614534b92ff8e3a4b06d39411b05b2d476",
		"join":    "15240ee103a00a8bd6b943ee63a13c6dfb3d1679685f7b0b5a440f07211bea31",
		"groupby": "92e20dca10ac0873ea752e2ff2a92cf9cc8c25558775da753e8c12db811b1c74",
		"topk":    "035477d44830627fda12820c69e5711abbbe69ee9f7e19616ea6ecfba2a0d9ec",
	},
	"chunked": {
		"scan":    "0afed3c5c7a01e5384582f676a47c9614534b92ff8e3a4b06d39411b05b2d476",
		"join":    "15240ee103a00a8bd6b943ee63a13c6dfb3d1679685f7b0b5a440f07211bea31",
		"groupby": "92e20dca10ac0873ea752e2ff2a92cf9cc8c25558775da753e8c12db811b1c74",
		"topk":    "035477d44830627fda12820c69e5711abbbe69ee9f7e19616ea6ecfba2a0d9ec",
	},
	// Hash-sharded tables (short #seq runs in every merge) and forced
	// repartition joins (the selection-vector shuffle), recorded while
	// rows still crossed every fragment boundary.
	"hash": {
		"scan":    "0afed3c5c7a01e5384582f676a47c9614534b92ff8e3a4b06d39411b05b2d476",
		"join":    "a8756a44e71aa09ce6d9b78e2f45712899479ef0d7649a45827fd2259e3810e2",
		"groupby": "a862f8ceab6dbf91bd908e5ddd3262f514e12844980418aed568c5d8fe28b7f1",
		"topk":    "035477d44830627fda12820c69e5711abbbe69ee9f7e19616ea6ecfba2a0d9ec",
	},
	"repartition": {
		"scan":    "0afed3c5c7a01e5384582f676a47c9614534b92ff8e3a4b06d39411b05b2d476",
		"join":    "0558838e6136f1b950e4061166cdb1e18ba1b5325f6f1caff12fed7266385b84",
		"groupby": "92e20dca10ac0873ea752e2ff2a92cf9cc8c25558775da753e8c12db811b1c74",
		"topk":    "035477d44830627fda12820c69e5711abbbe69ee9f7e19616ea6ecfba2a0d9ec",
	},
	"hash-repartition-chunked": {
		"scan":    "0afed3c5c7a01e5384582f676a47c9614534b92ff8e3a4b06d39411b05b2d476",
		"join":    "0558838e6136f1b950e4061166cdb1e18ba1b5325f6f1caff12fed7266385b84",
		"groupby": "a862f8ceab6dbf91bd908e5ddd3262f514e12844980418aed568c5d8fe28b7f1",
		"topk":    "035477d44830627fda12820c69e5711abbbe69ee9f7e19616ea6ecfba2a0d9ec",
	},
}

// checkClassGoldens runs the class statements on the demo tables, placed
// per place (table → hash column; nil keeps them range-placed).
func checkClassGoldens(t *testing.T, label string, cfg sql.Config, place map[string]string, goldens map[string]string) {
	t.Helper()
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sql.RegisterDemo(eng, 7, 20000, 2000)
	for table, col := range place {
		if err := eng.Place(table, col); err != nil {
			t.Fatal(err)
		}
	}
	sess := eng.Session()
	for _, c := range classStatements {
		res, err := sess.Query(context.Background(), c.sql)
		if err != nil {
			t.Fatalf("%s %s: %v", label, c.name, err)
		}
		sum := sha256.Sum256([]byte(Fingerprint(FromResult(res))))
		if got := hex.EncodeToString(sum[:]); got != goldens[c.name] {
			t.Errorf("%s %s: fingerprint %s, golden %s (%d rows)", label, c.name, got, goldens[c.name], res.Rows.Len())
		}
	}
}

func TestClassFingerprintGoldens(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		cfg := sql.DefaultConfig()
		cfg.Workers = workers
		checkClassGoldens(t, fmt.Sprintf("workers=%d", workers), cfg, nil, classGoldens[workers])
	}
}

func TestDistClassFingerprintGoldens(t *testing.T) {
	for _, movement := range []string{"bulk", "chunked", "hash", "repartition", "hash-repartition-chunked"} {
		for _, workers := range []int{1, 2} {
			cfg := sql.DefaultConfig()
			cfg.Workers = workers
			cfg.Distributed = true
			cfg.Shards = 4
			// The hash twins place each demo table on its first Int column.
			var place map[string]string
			if strings.HasPrefix(movement, "hash") {
				place = map[string]string{"sales": "order_id", "customers": "customer_id"}
			}
			switch movement {
			case "chunked":
				cfg.PipelineChunkRows = 1024
				cfg.MemoryBudget = 64 << 10
				cfg.Devices = []string{"cpu", "gpu", "fpga"}
			case "repartition":
				cfg.DistJoin = "repartition"
			case "hash-repartition-chunked":
				cfg.DistJoin = "repartition"
				cfg.PipelineChunkRows = 256
			}
			checkClassGoldens(t, fmt.Sprintf("dist-%s workers=%d", movement, workers), cfg, place, distGoldens[movement])
		}
	}
}
