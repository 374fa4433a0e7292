package sql

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/exec"
	"repro/internal/relational"
)

// Overrides is the one list of engine settings a session may override,
// zero values inheriting the engine's. Session embeds it (so the fields
// read as the session's own), a serving tenant embeds it as its JSON
// configuration — the tags are tenants.json's keys — and hands it whole to
// the sessions it opens, and the plan cache keys on it whole: a setting
// added here reaches all of them, and Session.cfg is the one place it is
// merged onto the engine's Config.
type Overrides struct {
	// DistJoin overrides the engine's distributed join movement strategy
	// ("auto", "broadcast" or "repartition").
	DistJoin string `json:"dist_join,omitempty"`
	// Workers overrides the engine's per-host worker cap when positive.
	Workers int `json:"workers,omitempty"`
	// Priority tags the session's fabric flows with a QoS class ("" =
	// best-effort). Classes drive per-class byte attribution in the
	// fabric aggregate and feed controller policies (e.g. the
	// strict-priority policy's class tiers: "interactive", "batch").
	Priority string `json:"priority,omitempty"`
	// Weight, when positive, is the scheduling weight of the session's
	// flows under the fabric's weighted max-min allocator: on a shared
	// bottleneck a weight-3 session receives three times the bandwidth
	// of a weight-1 peer, so its phases — and queries — finish sooner
	// under contention. Zero inherits the uniform weight 1.
	Weight float64 `json:"weight,omitempty"`
	// Placement overrides the engine's morsel placement policy over
	// Config.Devices: "auto" (cost-based) or a device name forcing every
	// morsel there. It has no effect when the engine has no device set.
	Placement string `json:"placement,omitempty"`
	// MemoryBudget overrides the engine's operator-state byte cap when
	// positive (see Config.MemoryBudget). A session on an unbudgeted
	// engine can turn out-of-core execution on, and vice versa cannot
	// turn it off — budgets model capacity, and a session asking for less
	// memory than the engine grants is the meaningful direction.
	MemoryBudget int64 `json:"memory_budget,omitempty"`
	// SpillTier overrides the engine's spill tier ("nvm", "ssd",
	// "disk"). An unknown tier surfaces as a planning error at
	// Query/Prepare.
	SpillTier string `json:"spill_tier,omitempty"`
	// PipelineChunkRows overrides the engine's movement chunk size when
	// positive (see Config.PipelineChunkRows): the session's movement is
	// cut into chunks of that many rows and charged as pipelined
	// sub-rounds. There is no per-session way back to the bulk charge on
	// a pipelined engine — like MemoryBudget, asking for finer chunks
	// than the engine default is the meaningful direction, and the rows
	// are identical either way.
	PipelineChunkRows int `json:"pipeline_chunk_rows,omitempty"`
}

// Validate checks the overrides with the rules NewEngine applies to the
// settings they override — a known join strategy, placement policy and
// spill tier, and no negative count or byte budget — so a bad override
// fails where it is declared, not at every query it would plan. The
// error names the field by its JSON key. A placement is checked as on an
// engine without devices: it must parse.
func (o Overrides) Validate() error {
	for _, c := range []struct {
		field string
		err   error
	}{
		{"dist_join", checkDistJoin(o.DistJoin)},
		{"workers", nonNegative(int64(o.Workers))},
		{"placement", exec.ValidateConfig(nil, o.Placement)},
		{"memory_budget", validateSpill(o.MemoryBudget, "")},
		{"spill_tier", validateSpill(0, o.SpillTier)},
		{"pipeline_chunk_rows", nonNegative(int64(o.PipelineChunkRows))},
	} {
		if c.err != nil {
			return fmt.Errorf("%s: %w", c.field, c.err)
		}
	}
	return nil
}

func nonNegative(n int64) error {
	if n < 0 {
		return fmt.Errorf("sql: negative value %d", n)
	}
	return nil
}

// Session is one query stream on an Engine: the unit of concurrency.
// Sessions share the engine's catalog, worker pool, and — in
// distributed mode — the one network simulator, so queries issued from
// different sessions at the same time contend for the same fabric.
//
// A Session is not safe for concurrent use; open one per goroutine
// (they are cheap). The embedded Overrides are its per-session overrides
// of the engine configuration.
type Session struct {
	eng *Engine
	Overrides
}

// Engine returns the session's engine.
func (s *Session) Engine() *Engine { return s.eng }

// cfg merges the session overrides onto the engine configuration.
func (s *Session) cfg() Config {
	cfg := s.eng.Config()
	if s.DistJoin != "" {
		cfg.DistJoin = s.DistJoin
	}
	if s.Workers > 0 {
		cfg.Workers = s.Workers
	}
	if s.Placement != "" {
		cfg.Placement = s.Placement
	}
	if s.MemoryBudget > 0 {
		cfg.MemoryBudget = s.MemoryBudget
	}
	if s.SpillTier != "" {
		cfg.SpillTier = s.SpillTier
	}
	if s.PipelineChunkRows > 0 {
		cfg.PipelineChunkRows = s.PipelineChunkRows
	}
	return cfg
}

// Query parses, plans and executes q, honouring ctx: cancellation aborts
// the execution at the next batch boundary on every engine path (serial
// rows, morsel-parallel batches, distributed phases — including a phase
// parked at the shared fabric's admission barrier).
func (s *Session) Query(ctx context.Context, q string) (*Result, error) {
	stmt, err := Parse(q)
	if err != nil {
		return nil, err
	}
	return s.execStmt(ctx, stmt)
}

// Explain plans q and returns the human-readable plan without executing.
func (s *Session) Explain(q string) (string, error) {
	stmt, err := Parse(q)
	if err != nil {
		return "", err
	}
	return (&Stmt{sess: s, ast: stmt}).Explain()
}

// Prepare parses and validates q, returning a re-executable statement.
// Planning runs once here so resolution and type errors surface at
// Prepare; each Exec then lowers a fresh operator tree from the parsed
// form, which is what makes repeated execution correct — operator trees
// are single-use by design (see ErrPlanSpent).
func (s *Session) Prepare(q string) (*Stmt, error) {
	stmt, err := Parse(q)
	if err != nil {
		return nil, err
	}
	pl := &planner{eng: s.eng, cfg: s.cfg()}
	if _, err := pl.planStmt(stmt); err != nil {
		return nil, err
	}
	return &Stmt{sess: s, text: q, ast: stmt}, nil
}

// Stmt is a prepared statement: parse once, execute any number of times.
// Each Exec plans and runs a fresh operator tree, so every run returns
// complete results with fresh operator and network stats.
type Stmt struct {
	sess *Session
	text string
	ast  *SelectStmt
}

// Text returns the statement's SQL.
func (st *Stmt) Text() string { return st.text }

// Bind returns the statement re-bound to another session of the same
// engine: the parsed form is shared (planning never mutates it — every
// Exec lowers a fresh operator tree from it already), only the session
// whose configuration and QoS identity each Exec runs under changes.
// This is what lets a server cache one prepared statement per (tenant,
// statement, config) and execute it from any number of concurrent
// request handlers, each on its own cheap Session.
func (st *Stmt) Bind(s *Session) *Stmt {
	return &Stmt{sess: s, text: st.text, ast: st.ast}
}

// Exec runs the statement under ctx. See Session.Query for cancellation
// semantics.
func (st *Stmt) Exec(ctx context.Context) (*Result, error) {
	return st.sess.execStmt(ctx, st.ast)
}

// Explain plans the statement under the session's current configuration
// and returns the plan text.
func (st *Stmt) Explain() (string, error) {
	pl := &planner{eng: st.sess.eng, cfg: st.sess.cfg()}
	p, err := pl.planStmt(st.ast)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// execStmt plans a fresh tree with a fresh cancellation token, binds the
// token to ctx for the duration of the run, and materializes the result.
func (s *Session) execStmt(ctx context.Context, stmt *SelectStmt) (*Result, error) {
	token := relational.NewCancelToken()
	pl := &planner{eng: s.eng, cfg: s.cfg(), cancel: token, class: s.Priority, weight: s.Weight}
	p, err := pl.planStmt(stmt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { token.Cancel(ctx.Err()) })
	defer stop()
	rel, err := p.Run()
	if err != nil {
		// The token's cause (the context error) may come back wrapped by
		// operator layers; report the context's own error for errors.Is.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	res := &Result{Rows: rel, Steps: p.Steps, Ops: map[string]relational.OpStats{}, Net: p.NetStats()}
	if res.Net != nil {
		res.Admission = &res.Net.Adm
	}
	if p.placer != nil {
		res.Devices = p.placer.Stats()
		res.Placement = p.placer.Policy()
	}
	if p.budget != nil {
		st := p.budget.Stats()
		res.Spill = &st
	}
	for tag, op := range p.TaggedOps {
		res.Ops[tag] = op.Stats()
	}
	return res, nil
}

// Columns returns the result's column names in order (a convenience for
// table rendering).
func (r *Result) Columns() []string {
	names := make([]string, len(r.Rows.Schema))
	for i, c := range r.Rows.Schema {
		names[i] = c.Name
	}
	return names
}

// Explain renders the executed plan, one line per step.
func (r *Result) Explain() string { return strings.Join(r.Steps, "\n") }
