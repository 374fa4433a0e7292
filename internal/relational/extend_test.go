package relational

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAppendAfterColumnarErrors: a row-built relation freezes once read as
// columns, so its image can never go stale.
func TestAppendAfterColumnarErrors(t *testing.T) {
	rel := sample()
	if err := rel.Append(Row{IntV(7), StringV("EU"), FloatV(1)}); err != nil {
		t.Fatalf("append before any columnar read: %v", err)
	}
	before := collectRows(t, RowsOf(NewBatchScan(rel)))
	if err := rel.Append(Row{IntV(8), StringV("NA"), FloatV(2)}); err == nil {
		t.Fatal("append after Columnar must error")
	}
	if rel.Len() != 7 || len(before) != 7 {
		t.Fatalf("len %d, scanned %d rows, want 7", rel.Len(), len(before))
	}
	requireSameRows(t, rel.Rows, collectRows(t, RowsOf(NewBatchScan(rel))))
}

// TestVectorSliceIsClipped: a window carries no spare capacity, so an
// append to it cannot write over its parent's later cells.
func TestVectorSliceIsClipped(t *testing.T) {
	rel := NewColumnRelation("t", Schema{{Name: "x", Type: Int}}, []Vector{{T: Int, Ints: []int64{0, 1, 2, 3}}}, 4)
	w := rel.Columnar()[0].Slice(1, 2)
	w.Ints = append(w.Ints, 99)
	if got := rel.Columnar()[0].Ints; !reflect.DeepEqual(got, []int64{0, 1, 2, 3}) {
		t.Fatalf("append to window [1,2) rewrote the relation to %v", got)
	}
}

var extendRuns atomic.Int64

// extendRow is a random row of the extend test's schema.
func extendRow(rng *rand.Rand) Row {
	return Row{IntV(rng.Int63n(1000) - 500), StringV(fmt.Sprint("s", rng.Intn(50))), FloatV(rng.NormFloat64())}
}

// TestExtendSnapshotsProperty drives random Extend sequences — of the
// newest relation (its first Extend appends in place), of stale ones, of
// row-built ones frozen or not, and failing ones whose last row is bad —
// while batch scans of earlier snapshots run concurrently. Every relation
// ever returned keeps its rows and Len, and a failed Extend leaves
// nothing visible. Each execution draws a new seed.
func TestExtendSnapshotsProperty(t *testing.T) {
	seed := extendRuns.Add(1)
	rng := rand.New(rand.NewSource(seed))
	schema := Schema{{Name: "i", Type: Int}, {Name: "s", Type: String}, {Name: "f", Type: Float}}
	type snap struct {
		rel  *Relation
		want []Row
	}
	rows := func(n int) []Row {
		out := make([]Row, n)
		for i := range out {
			out[i] = extendRow(rng)
		}
		return out
	}
	rowBuilt := func() snap {
		r := NewRelation("t", schema)
		for _, row := range rows(rng.Intn(30)) {
			r.MustAppend(row)
		}
		if rng.Intn(2) == 0 {
			r.Columnar() // frozen
		}
		return snap{r, append([]Row(nil), r.Rows...)}
	}
	check := func(s snap) error {
		if s.rel.Len() != len(s.want) {
			return fmt.Errorf("Len %d, want %d", s.rel.Len(), len(s.want))
		}
		got, err := Collect(RowsOf(NewBatchScan(s.rel)), "scan")
		if err != nil {
			return err
		}
		if len(s.want) > 0 && !reflect.DeepEqual(got.Rows, s.want) {
			return fmt.Errorf("batch scan diverges from the rows it was built with")
		}
		return nil
	}

	snaps := []snap{rowBuilt()}
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for step := 0; step < 150; step++ {
		base := snaps[len(snaps)-1]
		switch k := rng.Intn(10); {
		case k < 2:
			base = snaps[rng.Intn(len(snaps))]
		case k < 3:
			base = rowBuilt()
			snaps = append(snaps, base)
		}
		add := rows(rng.Intn(40))
		if rng.Intn(6) == 0 {
			bad := append(add, Row{IntV(1), IntV(2), FloatV(3)}) // String column holds an Int
			if rng.Intn(2) == 0 {
				bad[len(bad)-1] = Row{IntV(1)} // arity
			}
			if _, err := base.rel.Extend(bad); err == nil {
				t.Fatalf("seed %d step %d: Extend with a bad last row succeeded", seed, step)
			}
			if err := check(base); err != nil {
				t.Fatalf("seed %d step %d: failed Extend left a trace: %v", seed, step, err)
			}
		}
		next, err := base.rel.Extend(add)
		if err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		if !base.rel.colBuilt && base.rel.Append(extendRow(rng)) == nil {
			t.Fatalf("seed %d step %d: a row-built relation still appends after Extend read it", seed, step)
		}
		snaps = append(snaps, snap{next, append(append([]Row(nil), base.want...), add...)})
		// Scan an earlier snapshot while the next steps extend.
		old := snaps[rng.Intn(len(snaps))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := check(old); err != nil {
				report(err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatalf("seed %d: concurrent scan: %v", seed, err)
	}
	for i, s := range snaps {
		if err := check(s); err != nil {
			t.Fatalf("seed %d: snapshot %d: %v", seed, i, err)
		}
		if got := s.rel.RowView(); len(s.want) > 0 && !reflect.DeepEqual(got, s.want) {
			t.Fatalf("seed %d: snapshot %d: RowView diverges", seed, i)
		}
	}
}
