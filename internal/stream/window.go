package stream

import (
	"fmt"

	"repro/internal/relational"
)

// WindowSpec describes the event-time windowing of one subscription.
// Event time is an Int column of the source relation, in abstract ticks
// (the engine never interprets them as wall clock).
type WindowSpec struct {
	// TimeCol names the Int column carrying each event's time.
	TimeCol string
	// Size is the window length in ticks (required, > 0).
	Size int64
	// Slide is the window stride: Slide == Size (or 0, the default) is
	// tumbling; Slide < Size overlaps windows. Slide > Size (sampling
	// gaps) is rejected — every event must belong to at least one window
	// or batch parity over the union of windows is unverifiable.
	Slide int64
	// Lateness is how many ticks behind the maximum seen event time the
	// watermark trails: a window [s, s+Size) emits once watermark =
	// maxSeen - Lateness reaches s+Size. Larger lateness tolerates more
	// disorder at the cost of result freshness.
	Lateness int64
	// Recompute disables incremental maintenance: panes retain the raw
	// pre-projected events and every closing window re-aggregates them from
	// scratch. It exists as the measured baseline the incremental path is
	// benchmarked against (and doubles as a test oracle); results are
	// identical either way.
	Recompute bool
	// Buffer is the emission channel capacity (default 16).
	Buffer int
}

// normalize validates the spec and fills defaults.
func (w WindowSpec) normalize() (WindowSpec, error) {
	if w.TimeCol == "" {
		return w, fmt.Errorf("stream: WindowSpec needs a TimeCol")
	}
	if w.Size <= 0 {
		return w, fmt.Errorf("stream: window Size must be positive, got %d", w.Size)
	}
	if w.Slide == 0 {
		w.Slide = w.Size
	}
	if w.Slide < 0 || w.Slide > w.Size {
		return w, fmt.Errorf("stream: Slide %d must be in (0, Size=%d]", w.Slide, w.Size)
	}
	if w.Lateness < 0 {
		return w, fmt.Errorf("stream: negative Lateness %d", w.Lateness)
	}
	if w.Buffer <= 0 {
		w.Buffer = 16
	}
	return w, nil
}

// Tumbling reports whether windows abut without overlap.
func (w WindowSpec) Tumbling() bool { return w.Slide == w.Size }

// Window is one emitted windowed result: the aggregate rows of event
// window [Start, End).
type Window struct {
	Start, End int64
	// Rows is the window's result relation (the subscription's output
	// schema), column-built: read it as rows through RowView. Group
	// emission order matches the batch engine's answer to the same query
	// restricted to [Start, End).
	Rows *relational.Relation
	// Events is how many accepted events the window aggregated; Late is
	// how many of them arrived behind the then-maximum event time.
	Events, Late int64
	// FreshnessSeconds is the wall-clock delay between the ingest batch
	// that made this window emittable entering the hub and the emission.
	FreshnessSeconds float64
}

// Query is a compiled continuous query, produced by the sql layer
// (Session.Subscribe) and consumed by the windower, which runs its pieces
// — the batch planner's own — as batch operators over each appended
// window of the source relation and each emitted window's aggregate.
type Query struct {
	// Table is the lowercased source relation name.
	Table string
	// TimeCol is the event-time column's index in the source schema.
	TimeCol int
	// Filter is the compiled WHERE (nil keeps every row).
	Filter relational.VecPred
	// Pre/PreSchema are the pre-aggregation projection over the source
	// schema: group expressions then aggregate arguments.
	Pre       []relational.ProjExpr
	PreSchema relational.Schema
	// GroupCols/AggSpecs address columns of the pre-projection.
	GroupCols []int
	AggSpecs  []relational.AggSpec
	// AggSchema is the aggregate output schema (groups then aggregates).
	AggSchema relational.Schema
	// Out/OutSchema are the final select-item projection over the
	// aggregate output.
	Out       []relational.ProjExpr
	OutSchema relational.Schema
	// Budget, when non-nil, caps resident window state: panes spill
	// generations to the tiered store exactly like budgeted batch
	// aggregation. One budget instance per subscription.
	Budget *relational.MemoryBudget
}

// floorDiv is integer division rounding toward negative infinity (event
// times may be negative; Go's / truncates toward zero).
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// alignDown rounds x down to a multiple of m.
func alignDown(x, m int64) int64 { return floorDiv(x, m) * m }

// alignUp rounds x up to a multiple of m.
func alignUp(x, m int64) int64 { return alignDown(x+m-1, m) }

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
