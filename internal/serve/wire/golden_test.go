package wire

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
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
// stays bit-identical for a given worker count.
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
		"groupby": "941999e1f28535b3899b3f5721b2850aece0bb762c773aa476d701230d55de3c",
		"topk":    "035477d44830627fda12820c69e5711abbbe69ee9f7e19616ea6ecfba2a0d9ec",
	},
	4: {
		"scan":    "0afed3c5c7a01e5384582f676a47c9614534b92ff8e3a4b06d39411b05b2d476",
		"join":    "42ed761e8139206fc3efc44053782154868cc340ec44e2ce9df1b7d008d748c3",
		"groupby": "3d53c393ec4f241ca8ce1e5f5106bc0ef887a9ef6a25f0901b3578a46b625bc5",
		"topk":    "035477d44830627fda12820c69e5711abbbe69ee9f7e19616ea6ecfba2a0d9ec",
	},
}

func TestClassFingerprintGoldens(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		cfg := sql.DefaultConfig()
		cfg.Workers = workers
		eng, err := sql.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sql.RegisterDemo(eng, 7, 20000, 2000)
		sess := eng.Session()
		for _, c := range classStatements {
			res, err := sess.Query(context.Background(), c.sql)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, c.name, err)
			}
			sum := sha256.Sum256([]byte(Fingerprint(FromResult(res))))
			if got := hex.EncodeToString(sum[:]); got != classGoldens[workers][c.name] {
				t.Errorf("workers=%d %s: fingerprint %s, golden %s (%d rows)", workers, c.name, got, classGoldens[workers][c.name], res.Rows.Len())
			}
		}
	}
}
