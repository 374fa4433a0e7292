package sql

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/relational"
)

// TestLimitPrefix: under a total ORDER BY (every order ends in the unique
// id), ORDER BY … LIMIT k returns the first k rows of the same statement
// without LIMIT, for generated predicates and k from 0 past the table's
// size — the order the parallel drivers must keep whether the sort runs
// whole or as a top-k. It runs on the batch engine at Workers 1 and 4 and
// on 4 shards, and no row engine takes part. A predicate that fails
// (division or modulo by zero) fails both statements.
func TestLimitPrefix(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 1))
	var preds []string
	for range 8 {
		data := make([]byte, 40)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		g := &exprGen{data: data}
		preds = append(preds, g.gen(tBool, 3))
	}
	orders := []string{"f, id", "s DESC, i, id", "g DESC, id DESC", "e, p, id", "id DESC"}
	ks := []int{0, 1, 7, relational.BatchSize + 1, 2500, 5000}
	var stmts []string
	for _, p := range preds {
		for _, o := range orders {
			q := "SELECT id, i, f, s FROM t WHERE " + p + " ORDER BY " + o
			stmts = append(stmts, q)
			for _, k := range ks {
				stmts = append(stmts, fmt.Sprintf("%s LIMIT %d", q, k))
			}
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
			cut := 0
			for i := 0; i < len(stmts); i += 1 + len(ks) {
				whole := rows[i]
				if len(whole) > relational.BatchSize+1 {
					cut++
				}
				for j, k := range ks {
					q := i + 1 + j
					if (errs[i] == nil) != (errs[q] == nil) {
						t.Fatalf("%s: %v, but %s: %v", stmts[i], errs[i], stmts[q], errs[q])
					}
					if errs[i] != nil {
						continue
					}
					want := whole[:min(k, len(whole))]
					if len(rows[q]) != len(want) {
						t.Fatalf("%s: %d rows, want the first %d of %d", stmts[q], len(rows[q]), len(want), len(whole))
					}
					for r := range want {
						for c := range want[r] {
							if !sameBits(want[r][c], rows[q][r][c]) {
								t.Fatalf("%s: row %d col %d is %v, without LIMIT %v", stmts[q], r, c, rows[q][r][c], want[r][c])
							}
						}
					}
				}
			}
			if cut == 0 {
				t.Fatal("no statement keeps more than a batch of rows: no LIMIT cuts past a batch boundary")
			}
		})
	}
}
