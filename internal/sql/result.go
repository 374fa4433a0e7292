package sql

import (
	"errors"

	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/netsim"
	"repro/internal/relational"
	"repro/internal/stream"
)

// Result is one executed query: the output relation plus everything a
// caller needs to understand how it was produced — the plan text, the
// per-operator row counts, and (for distributed runs) the simulated
// network cost of the query's data movements on the shared fabric.
type Result struct {
	// Rows is the output relation. Batch and distributed runs hand it
	// over column-built, as the engine drained it: read Len, Schema and
	// Columnar() (what the wire encoder does), or ask RowView() for rows —
	// the Rows field of a column-built relation is nil until then. Only
	// the row engine (Config.Parallel=false, the oracle) returns it
	// row-built.
	Rows *relational.Relation
	// Steps is the executed plan, one line per operator bottom-up.
	Steps []string
	// Ops maps plan tags ("scan:<alias>", "join:<n>", "where", "agg",
	// "sort", "limit") to their post-execution operator stats.
	Ops map[string]relational.OpStats
	// Net is the query's network-side report: nil for single-node runs.
	Net *dist.QueryStats
	// Admission is the query's view of the shared fabric's admission
	// layer — rounds its phases joined, wall-clock barrier wait
	// (queueing delay behind concurrent queries), and the QoS class and
	// weight its flows competed under. Nil for single-node runs.
	Admission *netsim.PartyStats
	// Devices is the heterogeneous-execution report: per device, the
	// morsels and rows the placement policy sent there and the modeled
	// seconds/energy they cost (offload transfer, launch and
	// reconfiguration overheads broken out). Nil when the engine has no
	// device set configured, or when the query ran on the serial row
	// engine. Rows are identical regardless — devices model cost, not
	// semantics.
	Devices []exec.DeviceStats
	// Placement names the policy that placed the morsels ("" on the
	// homogeneous engine).
	Placement string
	// Spill is the out-of-core report of a budgeted run: the query-wide
	// total of state partitions evicted below the memory budget line,
	// bytes moved across the spill tier boundary, and the modeled
	// write/read time and energy they cost. Nil when the query ran
	// without a memory budget or on the serial row engine, which meters
	// nothing; non-nil but inactive (zero partitions) when a budget was
	// set and everything fit. Rows are identical regardless — the budget
	// models cost, not semantics.
	Spill *relational.SpillStats
	// Stream is the streaming report when the serving layer assembled
	// this result from the streaming subsystem (an ingest acknowledgement
	// or a completed subscription's summary); nil for ordinary queries.
	Stream *stream.Stats
}

// ErrPlanSpent reports an attempt to Run a Planned a second time.
// Operator trees are single-use: re-running one would silently re-drain
// exhausted operators (yielding an empty "result") while NetStats kept
// the previous run's flows. Planned.Run turns that silent corruption into
// this explicit error; use Session.Prepare / Stmt.Exec for repeated
// execution — each Exec lowers a fresh tree.
var ErrPlanSpent = errors.New("sql: plan already executed (operator trees are single-use; Prepare a statement to re-execute)")
