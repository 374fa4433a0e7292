package relational

import (
	"fmt"
	"sync"
	"testing"
)

// drainRows pulls an operator to the end without a testing.T, so it can
// run on any goroutine.
func drainRows(op Op) ([]Row, error) {
	var rows []Row
	for {
		row, ok, err := op.Next()
		if err != nil || !ok {
			return rows, err
		}
		rows = append(rows, row)
	}
}

// TestScanColumnBuiltEdges: the row engine's scan reads a column-built
// relation's vectors in place — a zero-column relation of n rows yields n
// empty rows, a clipped Slice window only its own rows, an empty relation
// nothing — and caches no row store on the relation. Every case runs
// beside batch scans of the same vectors, so -race sees any write.
func TestScanColumnBuiltEdges(t *testing.T) {
	base := randRel(41, 3*BatchSize+100)
	want := base.RowView()
	full := NewColumnRelation("t", base.Schema, base.Columnar(), base.Len())
	lo, hi := BatchSize-3, 2*BatchSize+5
	empty := make([]Vector, len(base.Schema))
	for c, col := range base.Schema {
		empty[c] = NewVector(col.Type, 0)
	}
	cases := []struct {
		name string
		rel  *Relation
		want []Row
	}{
		{"full", full, want},
		{"slice", full.Slice(lo, hi), want[lo:hi]},
		{"zero-columns", NewColumnRelation("z", nil, nil, 5), []Row{{}, {}, {}, {}, {}}},
		{"empty", NewColumnRelation("e", base.Schema, empty, 0), nil},
		{"empty-slice", full.Slice(lo, lo), nil},
		{"row-built", base, want},
	}
	got := make([][]Row, len(cases))
	errs := make([]error, 2*len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got[i], errs[2*i] = drainRows(NewScan(c.rel))
		}()
		go func() {
			defer wg.Done()
			rows, err := drainRows(RowsOf(NewBatchScan(c.rel)))
			if err == nil && len(rows) != len(c.want) {
				err = fmt.Errorf("batch scan: %d rows, want %d", len(rows), len(c.want))
			}
			errs[2*i+1] = err
		}()
	}
	wg.Wait()
	for i, c := range cases {
		if errs[2*i] != nil || errs[2*i+1] != nil {
			t.Fatalf("%s: %v / %v", c.name, errs[2*i], errs[2*i+1])
		}
		requireSameRows(t, c.want, got[i])
		for r, row := range got[i] {
			if len(row) != len(c.rel.Schema) {
				t.Fatalf("%s row %d: width %d, schema %d", c.name, r, len(row), len(c.rel.Schema))
			}
		}
		if c.rel != base && c.rel.Rows != nil {
			t.Fatalf("%s: the scan left %d boxed rows on the relation", c.name, len(c.rel.Rows))
		}
	}
}
