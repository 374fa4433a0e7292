package sql

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/relational"
	"repro/internal/stream"
)

// StreamSource returns the append handle of a registered table: batches
// fed through it become morsel appends in the catalog (running queries
// keep their snapshot), fan out to the table's subscriptions in append
// order, and — on a distributed engine — bill their bytes to the shared
// fabric as ingest-class flows. Close ends the table's stream, flushing
// every subscription's remaining windows.
func (s *Session) StreamSource(table string) (*stream.Source, error) {
	name := strings.ToLower(table)
	eng := s.eng
	if _, ok := eng.Table(name); !ok {
		return nil, fmt.Errorf("sql: unknown table %q", table)
	}
	if eng.hub.TableClosed(name) {
		return nil, fmt.Errorf("sql: stream for table %q already closed", table)
	}
	return stream.NewSource(name,
		func(rows []relational.Row) (stream.Ingest, error) { return eng.AppendRows(name, rows) },
		func() { eng.hub.CloseTable(name) }), nil
}

// CloseStream ends table's stream: appends are refused from here on,
// every subscription flushes its remaining windows and completes, and
// later subscriptions complete immediately. Idempotent; unknown tables
// error. The table itself stays queryable — closing a stream only
// declares the relation done growing.
func (e *Engine) CloseStream(table string) error {
	name := strings.ToLower(table)
	if _, ok := e.Table(name); !ok {
		return fmt.Errorf("sql: unknown table %q", table)
	}
	e.hub.CloseTable(name)
	return nil
}

// StreamClosed reports whether table's stream has been closed.
func (e *Engine) StreamClosed(table string) bool {
	return e.hub.TableClosed(table)
}

// Subscribe registers q as a continuous query over its (single, growing)
// source table: the returned subscription emits the query's result over
// each event-time window of spec as the watermark passes it, maintained
// incrementally from per-pane partial aggregates under the session's
// memory budget. The subscription covers rows already in the table plus
// everything appended afterwards; it completes when the table's stream
// closes (final flush) or ctx is cancelled (no flush, Err reports why).
//
// Continuous queries are the aggregate subset of the dialect: one table,
// WHERE, GROUP BY and aggregate select items. Joins, HAVING, ORDER BY
// and LIMIT are planning errors — window emission order (ascending
// window start, groups in first-seen order) is the stream's ordering.
func (s *Session) Subscribe(ctx context.Context, q string, spec stream.WindowSpec) (*stream.Subscription, error) {
	stmt, err := Parse(q)
	if err != nil {
		return nil, err
	}
	cq, err := s.compileContinuous(stmt, spec)
	if err != nil {
		return nil, err
	}
	return s.eng.subscribe(ctx, cq, spec)
}

// compileContinuous lowers the aggregate subset of a SELECT into a
// stream.Query, reusing the batch planner's compile pieces (scope
// binding, the filter program, aggregate plan, post-aggregation
// projection) so a window's result is computed by
// exactly the machinery the batch engine would use for the same query
// restricted to the window's time range.
func (s *Session) compileContinuous(stmt *SelectStmt, spec stream.WindowSpec) (*stream.Query, error) {
	switch {
	case len(stmt.Joins) > 0:
		return nil, fmt.Errorf("sql: continuous queries cannot join (streams window one growing table)")
	case stmt.Star:
		return nil, fmt.Errorf("sql: continuous queries cannot SELECT * (aggregate the window instead)")
	case !stmt.HasAggregates():
		return nil, fmt.Errorf("sql: continuous queries must aggregate (windows emit aggregate state)")
	case stmt.Having != nil:
		return nil, fmt.Errorf("sql: HAVING is not supported in continuous queries")
	case len(stmt.OrderBy) > 0:
		return nil, fmt.Errorf("sql: ORDER BY is not supported in continuous queries (windows emit in stream order)")
	case stmt.Limit >= 0:
		return nil, fmt.Errorf("sql: LIMIT is not supported in continuous queries")
	}
	pl := &planner{eng: s.eng, cfg: s.cfg()}
	legs, err := pl.resolveLegs(stmt)
	if err != nil {
		return nil, err
	}
	leg := legs[0]
	cq := &stream.Query{Table: strings.ToLower(stmt.From.Name)}

	cq.TimeCol = -1
	for i, c := range leg.rel.Schema {
		if strings.EqualFold(c.Name, spec.TimeCol) {
			cq.TimeCol = i
			break
		}
	}
	if cq.TimeCol < 0 {
		return nil, fmt.Errorf("sql: window time column %q not in table %q", spec.TimeCol, stmt.From.Name)
	}
	if leg.rel.Schema[cq.TimeCol].Type != relational.Int {
		return nil, fmt.Errorf("sql: window time column %q must be an Int (event-time ticks)", spec.TimeCol)
	}

	sc := &scope{}
	sc.addTable(leg.alias, leg.rel.Schema, 0)
	if stmt.Where != nil {
		f, err := compileFilter(sc, foldConstants(stmt.Where))
		if err != nil {
			return nil, err
		}
		cq.Filter = f.prog
	}
	ap, err := buildAggPlan(stmt, sc, leg.rel.Schema)
	if err != nil {
		return nil, err
	}
	cq.Pre, cq.PreSchema = ap.pre, ap.preSchema
	cq.GroupCols, cq.AggSpecs = ap.groupCols, ap.aggSpecs
	cq.AggSchema, err = relational.AggOutputSchema(ap.preSchema, ap.groupCols, ap.aggSpecs)
	if err != nil {
		return nil, err
	}
	post := ap.postScope(stmt)
	outSchema, outExprs, err := compileItems(stmt.Items, post, cq.AggSchema)
	if err != nil {
		return nil, err
	}
	cq.OutSchema, cq.Out = outSchema, outExprs
	cq.Budget, err = pl.spillBudget()
	if err != nil {
		return nil, err
	}
	return cq, nil
}

// subscribe primes and registers a compiled continuous query under the
// catalog lock — the same lock AppendRows publishes under, so the primed
// snapshot and the published batches tile the table's rows exactly (no
// row delivered twice, none missed).
func (e *Engine) subscribe(ctx context.Context, cq *stream.Query, spec stream.WindowSpec) (*stream.Subscription, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rel, ok := e.tables[cq.Table]
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", cq.Table)
	}
	return e.hub.Subscribe(ctx, cq, spec, rel)
}
