package sql

import (
	"math"
	"testing"

	"repro/internal/relational"
)

// minMaxTable is 65,536 rows of one key k (and m, a key with a group per
// four rows). v1 and v2 are 1 except a NaN then a 0 at rows 16,384 and
// 32,768 — where a 4-shard range and a Workers 2 range begin — v3 opens
// with a NaN, a negative one, and holds a 0 at row 9; z alternates -0 and
// +0.
func minMaxTable() *relational.Relation {
	const n = 1 << 16
	k, m := make([]int64, n), make([]int64, n)
	v1, v2, v3, z := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for r := range n {
		k[r], m[r] = 1, int64(r/4)
		v1[r], v2[r], v3[r] = 1, 1, 1
		z[r] = math.Copysign(0, float64(r%2)-0.5)
	}
	v1[16384], v1[16385] = math.NaN(), 0
	v2[32768], v2[32769] = math.NaN(), 0
	v3[0], v3[9] = math.Copysign(math.NaN(), -1), 0
	vec := func(f []float64) relational.Vector { return relational.Vector{T: relational.Float, Floats: f} }
	return relational.NewColumnRelation("t", relational.Schema{
		{Name: "k", Type: relational.Int}, {Name: "m", Type: relational.Int},
		{Name: "v1", Type: relational.Float}, {Name: "v2", Type: relational.Float},
		{Name: "v3", Type: relational.Float}, {Name: "z", Type: relational.Float},
	}, []relational.Vector{{T: relational.Int, Ints: k}, {T: relational.Int, Ints: m}, vec(v1), vec(v2), vec(v3), vec(z)}, n)
}

// TestFloatMinMaxOneAnswer: Float MIN and MAX fold in IEEE 754 total
// order — the ORDER BY order, a NaN beyond ±Inf by its sign, with -0
// below +0 — so a group's extremes are a function of its values alone:
// the row engine and every batch configuration answer alike, wherever a
// worker's, a shard's or a chunk's range begins. A positive NaN is the
// MAX and a negative one the MIN, in the group's first row or later.
func TestFloatMinMaxOneAnswer(t *testing.T) {
	rel := minMaxTable()
	const items = "MIN(v1), MAX(v1), MIN(v2), MAX(v2), MIN(v3), MAX(v3), MIN(z), MAX(z)"
	stmts := []string{
		"SELECT k, " + items + " FROM t GROUP BY k",
		"SELECT " + items + " FROM t",
		"SELECT m, " + items + " FROM t GROUP BY m",
	}
	want, errs := oracleRun(t, []*relational.Relation{rel}, stmts, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("row engine: %s: %v", stmts[i], err)
		}
	}
	row := want[0][0][1:]
	negZero, negNaN := math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.Copysign(math.NaN(), -1))
	if row[0].F != 0 || !math.IsNaN(row[1].F) || row[2].F != 0 || !math.IsNaN(row[3].F) ||
		math.Float64bits(row[4].F) != negNaN || row[5].F != 1 ||
		math.Float64bits(row[6].F) != negZero || math.Float64bits(row[7].F) != 0 {
		t.Fatalf("row engine answers %v, want [0 NaN 0 NaN -NaN 1 -0 0]", row)
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
