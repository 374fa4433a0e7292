package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/relational"
	"repro/internal/serve/wire"
	"repro/internal/sql"
)

// reference holds, per statement class, the rows the serial row engine
// (Parallel=false) returns over the same tables: the oracle every
// measured result is checked against.
type reference map[string][][]any

// buildReference executes every class once on a serial row engine over
// the given relations. corrupt makes the reference wrong on purpose (one
// cell of the first class), which the smoke test uses to show the gate
// fails a run.
func buildReference(corrupt bool, rels ...*relational.Relation) (reference, error) {
	cfg := sql.DefaultConfig()
	cfg.Parallel = false
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range rels {
		eng.Register(r)
	}
	ref := reference{}
	sess := eng.Session()
	for _, c := range classes {
		res, err := sess.Query(context.Background(), c.SQL)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", c.Name, err)
		}
		ref[c.Name] = wire.Rows(res.Rows)
	}
	if corrupt {
		ref[classes[0].Name][0][0] = int64(-1)
	}
	return ref, nil
}

// sameRows compares a result row-for-row with its reference. Int and
// String cells must be identical. Float cells compare within 1e-9
// relative: the batch and distributed engines merge per-partition
// partial sums, which differ from the serial left fold in the last ulp
// (the repository's own parity suite uses the same tolerance), so an
// exact wire.Fingerprint match is not attainable across engines.
// Cells decoded from JSON arrive as json.Number.
func sameRows(want, got [][]any) error {
	if len(want) != len(got) {
		return fmt.Errorf("row count %d, reference %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("row %d: width %d, reference %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			if !sameCell(w, got[i][j]) {
				return fmt.Errorf("row %d col %d: %v, reference %v", i, j, got[i][j], w)
			}
		}
	}
	return nil
}

func sameCell(want, got any) bool {
	switch w := want.(type) {
	case int64:
		switch g := got.(type) {
		case int64:
			return g == w
		case json.Number:
			v, err := g.Int64()
			return err == nil && v == w
		}
	case float64:
		var v float64
		switch g := got.(type) {
		case float64:
			v = g
		case json.Number:
			f, err := g.Float64()
			if err != nil {
				return false
			}
			v = f
		default:
			return false
		}
		return math.Abs(w-v) <= 1e-9*math.Max(1, math.Abs(w))
	case string:
		g, ok := got.(string)
		return ok && g == w
	}
	return false
}

// recorder collects what a measured section did: per-class latencies,
// operations attempted and failed, and the first few failure messages.
type recorder struct {
	lat       map[string][]float64 // class -> latency ms, in completion order
	attempted int
	failed    int
	errs      []string
}

func newRecorder() *recorder { return &recorder{lat: map[string][]float64{}} }

func (r *recorder) ok(class string, latMS float64) {
	r.attempted++
	r.lat[class] = append(r.lat[class], latMS)
}

// fail counts a failed operation: transport error, non-200 or
// row-count mismatch.
func (r *recorder) fail(format string, args ...any) {
	r.attempted++
	r.mismatch(format, args...)
}

// mismatch fails an operation already counted as attempted: its rows
// differed from the reference in the full check after the timed section.
func (r *recorder) mismatch(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// all returns every recorded latency.
func (r *recorder) all() []float64 {
	var out []float64
	for _, xs := range r.lat {
		out = append(out, xs...)
	}
	return out
}

// classP50s returns the per-class medians in a fixed class order.
func (r *recorder) classP50s(names []string) []float64 {
	var out []float64
	for _, n := range names {
		if len(r.lat[n]) > 0 {
			out = append(out, median(r.lat[n]))
		}
	}
	return out
}

// merge folds another recorder (one per client goroutine) into r.
func (r *recorder) merge(o *recorder) {
	for c, xs := range o.lat {
		r.lat[c] = append(r.lat[c], xs...)
	}
	r.mergeCounts(o)
}

// mergeCounts folds in another recorder's verdicts but not its
// latencies.
func (r *recorder) mergeCounts(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}
