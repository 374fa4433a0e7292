package sql

import "testing"

// FuzzParsePlan: no SQL text makes Parse or the planner panic, on a
// single node or on 2 shards co-placed on customer_id — every failure is
// an error — and both engines accept exactly the same statements. The
// seeds are the parity, co-placement and group-local suites' statements;
// malformed fragments (unterminated strings, a bare GROUP BY, ORDER BY 0,
// deep parentheses) are in testdata/fuzz/FuzzParsePlan.
func FuzzParsePlan(f *testing.F) {
	for _, qs := range [][]string{parityQueries, colocQueries, groupLocalQueries} {
		for _, q := range qs {
			f.Add(q)
		}
	}
	engines := []*Engine{
		placedEngine(f, Config{}, nil),
		placedEngine(f, Config{Distributed: true, Shards: 2}, PlaceDemo),
	}
	f.Fuzz(func(t *testing.T, q string) {
		if _, err := Parse(q); err != nil {
			return
		}
		var errs [2]error
		for i, eng := range engines {
			_, errs[i] = eng.Session().Prepare(q)
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("%q: single node %v, 2 co-placed shards %v", q, errs[0], errs[1])
		}
	})
}
