package relational

import (
	"testing"

	"repro/internal/exec"
)

// Device-placed batch operators must emit exactly what their unplaced
// twins emit — devices model cost, not semantics — while their stats
// carry the modeled costs, and the dispatcher survives partitioning
// (morsel-parallel workers share it).

func testPlacer(t *testing.T, placement string) *exec.Placer {
	t.Helper()
	p, err := exec.NewPlacer([]string{"cpu", "gpu", "fpga"}, placement)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlacedOperatorsParity: filter + project + sort + group-agg trees,
// placed and unplaced, across forced and auto policies, serial and
// through the Exchange.
func TestPlacedOperatorsParity(t *testing.T) {
	rel := randRel(5, 3*BatchSize+77)
	ranges := []ColRange{{Col: 3, Lo: 10, HasLo: true}}
	build := func(placer *exec.Placer, workers int) Op {
		f := NewBatchFilter(NewBatchScan(rel), ranges, nil)
		pr, err := NewBatchProject(f, Schema{rel.Schema[1], {Name: "v2", Type: Float}}, []ProjExpr{
			Pick(1),
			Expr(func(r Row) (Value, error) { return FloatV(r[2].F * 2), nil }),
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewBatchSort(pr, []SortKey{{Col: 0}}, workers)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewBatchGroupAgg(s, []int{0}, []AggSpec{{Fn: SumAgg, Col: 1, Name: "sum"}}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if placer != nil {
			f.Place(placer.Dispatcher(exec.FilterWork, rel.Len(), 0))
			pr.Place(placer.Dispatcher(exec.ProjectWork, 0, pr.ExprCount()))
			s.Place(placer.Dispatcher(exec.SortWork, 0, 0))
			g.Place(placer.Dispatcher(exec.AggWork, 0, 0))
		}
		return RowsOf(NewExchange(g, workers))
	}
	want := collectRows(t, build(nil, 1))
	for _, placement := range []string{"cpu", "gpu", "fpga", "auto"} {
		for _, workers := range []int{1, 4} {
			placer := testPlacer(t, placement)
			got := collectRows(t, build(placer, workers))
			requireSameRows(t, want, got)
			stats := placer.Stats()
			if len(stats) == 0 {
				t.Fatalf("%s/%d workers: no placements recorded", placement, workers)
			}
			total := 0.0
			for _, d := range stats {
				total += d.Seconds
			}
			if total <= 0 {
				t.Fatalf("%s/%d workers: no modeled time", placement, workers)
			}
		}
	}
}

// TestPlacedFilterStats: the operator's OpStats carry the dispatcher's
// cost, with all partitions charging the one shared dispatcher.
func TestPlacedFilterStats(t *testing.T) {
	rel := randRel(9, 4*BatchSize)
	placer := testPlacer(t, "gpu")
	f := NewBatchFilter(NewBatchScan(rel), []ColRange{{Col: 3, Hi: 25, HasHi: true}}, nil)
	f.Place(placer.Dispatcher(exec.FilterWork, rel.Len(), 0))
	collectRows(t, RowsOf(NewExchange(f, 4)))
	st := f.Stats()
	if st.Hetero == nil {
		t.Fatal("placed filter must report hetero stats")
	}
	if st.Hetero.Morsels != 4 || st.Hetero.Devices["gpu"] != 4 {
		t.Fatalf("all 4 morsels on the forced device: %+v", st.Hetero)
	}
	if st.Hetero.TransferSeconds <= 0 || st.Hetero.LaunchSeconds <= 0 {
		t.Fatalf("gpu morsels must charge offload overheads: %+v", st.Hetero)
	}
	// Unplaced operators stay clean.
	f2 := NewBatchFilter(NewBatchScan(rel), nil, nil)
	collectRows(t, RowsOf(f2))
	if f2.Stats().Hetero != nil {
		t.Fatal("unplaced operator must not report hetero stats")
	}
}
