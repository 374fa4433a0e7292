// Package wire is the canonical JSON encoding of the engine's query
// results. Every surface that speaks JSON — the rethinkd daemon's
// responses, the rethink-load harness's reports, rethink-sql's -json mode
// — encodes through Result, so the wire format has exactly one source of
// truth.
//
// The execution reports travel as the engine's own types, JSON-tagged
// where they are declared: dist.QueryStats, netsim.PartyStats,
// exec.DeviceStats and relational.SpillStats in Result, stream.Stats in
// the daemon's end-of-stream record, and dist.FabricStats and
// lifecycle.Health in its /metrics and /v1/hosts documents. A stats
// field is added once, tagged, on its engine type, and shows up on every
// surface at once. Rows encode as typed JSON scalars — Int columns as
// JSON numbers (int64-exact), Float as numbers, String as strings — in
// schema column order.
package wire

import (
	"fmt"
	"strings"

	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/netsim"
	"repro/internal/relational"
	"repro/internal/sql"
)

// Column is one result-schema column.
type Column struct {
	Name string `json:"name"`
	Type string `json:"type"` // "int", "float", "string"
}

// Result is one executed query on the wire: the materialized rows plus
// the full execution report of sql.Result.
type Result struct {
	Columns []Column `json:"columns"`
	// Rows holds one []any per row: int64, float64 or string cells in
	// column order.
	Rows     [][]any  `json:"rows"`
	RowCount int      `json:"row_count"`
	Steps    []string `json:"steps,omitempty"`
	// Net is the simulated-network report (distributed runs only).
	Net *dist.QueryStats `json:"net,omitempty"`
	// Admission is the query's shared-fabric admission report, Net.Adm
	// (distributed runs only).
	Admission *netsim.PartyStats `json:"admission,omitempty"`
	// Devices is the heterogeneous-placement report (engines with a
	// device set only); Placement names the policy that placed morsels.
	Devices   []exec.DeviceStats `json:"devices,omitempty"`
	Placement string             `json:"placement,omitempty"`
	// Spill is the out-of-core report (budgeted runs only).
	Spill *relational.SpillStats `json:"spill,omitempty"`
}

// Cell converts one relational value to its JSON scalar.
func Cell(v relational.Value) any {
	switch v.T {
	case relational.Int:
		return v.I
	case relational.Float:
		return v.F
	default:
		return v.S
	}
}

// Rows converts a relation to wire cells in schema order, straight from
// its column vectors: one typed loop per column, every row a window of one
// backing array. A column-built relation (every batch and distributed
// result) is never boxed into relational rows on the way out.
func Rows(rel *relational.Relation) [][]any {
	n, w := rel.Len(), len(rel.Schema)
	flat := make([]any, n*w)
	for c, col := range rel.Columnar() {
		switch col.T {
		case relational.Int:
			for r, v := range col.Ints[:n] {
				flat[r*w+c] = v
			}
		case relational.Float:
			for r, v := range col.Floats[:n] {
				flat[r*w+c] = v
			}
		default:
			for r := range n {
				flat[r*w+c] = col.Str(r)
			}
		}
	}
	out := make([][]any, n)
	for r := range out {
		out[r] = flat[r*w : (r+1)*w : (r+1)*w]
	}
	return out
}

// Fingerprint renders the wire rows as one deterministic string —
// the row-for-row identity check the load harness and parity tests use
// to compare server results against direct library execution. Float
// cells render with strconv-exact precision via %v on the float64.
func Fingerprint(r *Result) string {
	var b strings.Builder
	for _, c := range r.Columns {
		b.WriteString(c.Name + ":" + c.Type + ";")
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for _, cell := range row {
			fmt.Fprintf(&b, "%v|", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FromResult converts a library result to its wire form.
func FromResult(res *sql.Result) *Result {
	out := &Result{
		Columns:   Columns(res.Rows.Schema),
		Rows:      Rows(res.Rows),
		RowCount:  res.Rows.Len(),
		Steps:     res.Steps,
		Net:       res.Net,
		Devices:   res.Devices,
		Placement: res.Placement,
		Spill:     res.Spill,
	}
	if res.Net != nil {
		out.Admission = &res.Net.Adm
	}
	return out
}

// Columns converts a relational schema to its wire form.
func Columns(schema relational.Schema) []Column {
	out := make([]Column, len(schema))
	for i, c := range schema {
		out[i] = Column{Name: c.Name, Type: c.Type.String()}
	}
	return out
}

// ModelSeconds is the query's modeled service time: the simulated
// movement-plus-compute critical path of its distributed phases plus the
// modeled spill I/O. Zero for single-node runs (their cost is real CPU,
// not simulated). The load harness reports latency quantiles over this
// — it is where a 3:1 fabric weight actually shows up, since barrier
// wall-clock waits are shared by construction.
func (r *Result) ModelSeconds() float64 {
	if r.Net == nil {
		return 0
	}
	return r.Net.WallSeconds() + r.Net.SpillSeconds
}
