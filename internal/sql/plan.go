package sql

import (
	"fmt"
	"strings"

	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/relational"
)

// Planned is an executable query plan: the output schema, the plan text,
// and one single-use Run that drains the lowered operator tree into a
// relation.
type Planned struct {
	// Schema is the output schema.
	Schema relational.Schema
	// Steps is the human-readable plan, one line per operator bottom-up.
	Steps []string
	// TaggedOps exposes operators by tag for stats inspection
	// ("scan:<alias>", "join:<n>", "where", "agg", "sort", "limit").
	TaggedOps map[string]OpStatser

	// run executes the plan; the lowering installs it (see runAs).
	run   func() (*relational.Relation, error)
	spent bool
	err   error
	// net is the network-side report of a distributed run, set when it
	// finishes.
	net *dist.QueryStats
	// placer is the execution's heterogeneous device placer (nil on the
	// homogeneous engine); its aggregate becomes Result.Devices.
	placer *exec.Placer
	// budget is the execution's memory budget (nil on the unbudgeted
	// engine); its query-wide spill aggregate becomes Result.Spill.
	budget *relational.MemoryBudget
}

// OpStatser is a lowered operator as TaggedOps holds it: row and batch
// operators both report their stats this way.
type OpStatser interface{ Stats() relational.OpStats }

// Run executes the plan and returns its output relation. Operator trees
// are single-use, so a plan runs once: a second Run reports ErrPlanSpent,
// and a failed run stays failed — every later Run reports the original
// error instead of resuming the half-drained tree. Prepared statements
// re-plan per execution instead.
func (p *Planned) Run() (*relational.Relation, error) {
	if p.spent {
		if p.err != nil {
			return nil, p.err
		}
		return nil, ErrPlanSpent
	}
	p.spent = true
	rel, err := p.run()
	p.err = err
	return rel, err
}

// runAs finishes a lowering: the plan's output is n, which lw drains.
func (p *Planned) runAs(lw *lowerer, n execNode) *Planned {
	p.Schema = schemaOf(n)
	p.run = func() (*relational.Relation, error) { return lw.drain(n) }
	return p
}

// Explain renders the plan.
func (p *Planned) Explain() string { return strings.Join(p.Steps, "\n") }

// NetStats reports the simulated-network execution stats of a
// distributed plan: nil for single-node plans, and nil until the plan has
// executed (stats are sourced from the flows the execution charges).
func (p *Planned) NetStats() *dist.QueryStats { return p.net }

// tableLeg is one FROM/JOIN input during planning.
type tableLeg struct {
	alias  string
	rel    *relational.Relation
	schema relational.Schema // visible columns (pruned in batch mode)
	prune  []int             // kept original column indices; nil = all
	filter []Expr            // pushed-down conjuncts
	pushed *planFilter       // their compiled conjunction; nil if none
}

// column maps visible column c to its index in the table.
func (leg *tableLeg) column(c int) int {
	if leg.prune != nil {
		return leg.prune[c]
	}
	return c
}

// scope binds the leg's visible columns alone (what its pushed filter
// compiles against).
func (leg *tableLeg) scope() *scope {
	sc := &scope{}
	sc.addTable(leg.alias, leg.schema, 0)
	return sc
}

// collectQueryCols gathers every column reference in the statement, for
// per-leg column pruning.
func collectQueryCols(stmt *SelectStmt) []*ColRef {
	var cols []*ColRef
	for _, it := range stmt.Items {
		collectCols(it.E, &cols)
	}
	if stmt.Where != nil {
		collectCols(stmt.Where, &cols)
	}
	for _, j := range stmt.Joins {
		collectCols(j.On, &cols)
	}
	for _, g := range stmt.GroupBy {
		collectCols(g, &cols)
	}
	if stmt.Having != nil {
		collectCols(stmt.Having, &cols)
	}
	for _, o := range stmt.OrderBy {
		collectCols(o.E, &cols)
	}
	return cols
}

// pruneLeg restricts a leg to the columns the query might reference.
// Bare names that could resolve into several legs are kept in each (a
// safe over-approximation; ambiguity still errors at compile time).
func pruneLeg(leg *tableLeg, refs []*ColRef) {
	used := map[int]bool{}
	for _, cr := range refs {
		if cr.Table != "" && cr.Table != leg.alias {
			continue
		}
		if idx := leg.rel.Schema.ColIndex(cr.Name); idx >= 0 {
			used[idx] = true
		}
	}
	if len(used) == 0 {
		// COUNT(*)-style legs still need one column to carry row counts.
		used[0] = true
	}
	if len(used) >= len(leg.rel.Schema) {
		return
	}
	var keep []int
	var pruned relational.Schema
	for idx := range leg.rel.Schema {
		if used[idx] {
			keep = append(keep, idx)
			pruned = append(pruned, leg.rel.Schema[idx])
		}
	}
	leg.prune = keep
	leg.schema = pruned
}

// resolveLegs binds the FROM and JOIN table references.
func (pl *planner) resolveLegs(stmt *SelectStmt) ([]*tableLeg, error) {
	legs := []*tableLeg{}
	seen := map[string]bool{}
	addLeg := func(tr TableRef) error {
		rel, ok := pl.eng.Table(tr.Name)
		if !ok {
			return fmt.Errorf("sql: unknown table %q", tr.Name)
		}
		alias := tr.EffectiveAlias()
		if seen[alias] {
			return fmt.Errorf("sql: duplicate table alias %q", alias)
		}
		seen[alias] = true
		legs = append(legs, &tableLeg{alias: alias, rel: rel, schema: rel.Schema})
		return nil
	}
	if err := addLeg(stmt.From); err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		if err := addLeg(j.Table); err != nil {
			return nil, err
		}
	}
	return legs, nil
}

// splitWhere folds constants and attaches single-leg WHERE conjuncts to
// their legs, returning the residual conjuncts.
func (pl *planner) splitWhere(stmt *SelectStmt, legs []*tableLeg) []Expr {
	if stmt.Where == nil {
		return nil
	}
	var residual []Expr
	for _, c := range splitConjuncts(foldConstants(stmt.Where)) {
		if leg := pl.soleLeg(c, legs); leg != nil {
			leg.filter = append(leg.filter, c)
		} else {
			residual = append(residual, c)
		}
	}
	return residual
}

// legSizeEstimate is the optimizer's crude post-pushdown cardinality
// guess for a leg.
func legSizeEstimate(leg *tableLeg) int {
	size := leg.rel.Len()
	if len(leg.filter) > 0 {
		size = size / (2 * len(leg.filter))
	}
	return size
}

// advanceJoinSize updates the running cardinality estimate after joining
// the current stream with a leg.
func advanceJoinSize(curSize, rightSize, rightLen int) int {
	curSize = curSize * max(1, rightSize) / max(1, rightLen)
	if curSize < 1 {
		return 1
	}
	return curSize
}

// joinStep is one left-deep hash join of the logical plan: the running
// stream (every earlier leg, columns in declaration order) joined with
// leg.
type joinStep struct {
	leg *tableLeg
	on  Expr
	// leftCol and rightCol are the equi-key columns in the running stream
	// and in leg. swapped builds the hash table on leg (the smaller
	// estimated side) and probes with the running stream; the probe side
	// drives output order, so both executions must agree on it.
	leftCol, rightCol int
	swapped           bool
	// rest is the non-equi residue of ON (nil if none), over the columns
	// visible once leg has joined.
	rest *planFilter
	// size is the running cardinality estimate after the join.
	size int
}

// logicalPlan is everything the planner decides about a statement below
// its aggregate or projection: which legs it reads and which columns and
// conjuncts each keeps, how they join, and what is left of WHERE. It is
// built once per statement; the single-node execution lowers it to one
// operator tree (planLocal) and the distributed execution lowers it per
// shard and inserts the movements (planDist), so join order, build side,
// pruning and pushdown can never differ between the two.
type logicalPlan struct {
	legs  []*tableLeg
	joins []joinStep
	// residual is the WHERE conjuncts no single leg owns (nil if none),
	// over scope, which binds schema: every leg's visible columns in
	// declaration order.
	residual *planFilter
	scope    *scope
	schema   relational.Schema
	// size is the cardinality estimate of the stream the aggregate or
	// projection reads.
	size int
}

// buildLogical plans stmt's scans, joins and filters and compiles the
// filters for the engine that runs them. batch also prunes each leg to
// the referenced columns: a pick-projection over a batch scan shares
// column vectors for free, and every later gather then touches only
// referenced columns, while the row engine reads rows in place, where
// pruning would cost a copy per row instead of saving one.
func (pl *planner) buildLogical(stmt *SelectStmt, batch bool) (*logicalPlan, error) {
	legs, err := pl.resolveLegs(stmt)
	if err != nil {
		return nil, err
	}
	if batch && !stmt.Star {
		refs := collectQueryCols(stmt)
		for _, leg := range legs {
			pruneLeg(leg, refs)
		}
	}
	residual := pl.splitWhere(stmt, legs)
	for _, leg := range legs {
		if len(leg.filter) == 0 {
			continue
		}
		if leg.pushed, err = compileFilter(leg.scope(), joinConjuncts(leg.filter)); err != nil {
			return nil, err
		}
	}
	lp := &logicalPlan{legs: legs, schema: append(relational.Schema{}, legs[0].schema...)}

	// Left-deep joins. The combined scope always reads
	// legs[0] ++ legs[1] ++ ... in declaration order.
	cur := legs[0].scope()
	lp.size = legSizeEstimate(legs[0])
	for ji, j := range stmt.Joins {
		leg := legs[ji+1]
		step := joinStep{leg: leg, on: j.On}
		var rest Expr
		if step.leftCol, step.rightCol, rest, err = pl.splitJoinOn(j.On, cur, leg.scope()); err != nil {
			return nil, err
		}
		rightSize := legSizeEstimate(leg)
		// Build the hash table on the smaller estimated side.
		step.swapped = rightSize < lp.size
		cur.addTable(leg.alias, leg.schema, len(lp.schema))
		lp.schema = append(lp.schema, leg.schema...)
		if step.rest, err = compileFilter(cur, rest); err != nil {
			return nil, err
		}
		lp.size = advanceJoinSize(lp.size, rightSize, leg.rel.Len())
		step.size = lp.size
		lp.joins = append(lp.joins, step)
	}
	lp.scope = cur
	lp.residual, err = compileFilter(cur, joinConjuncts(residual))
	return lp, err
}

// frontSteps renders the Explain lines of the scans, joins and residual
// filter. shards > 0 selects the distributed wording, where placedOn[i]
// names the column leg i's table is hash-placed on ("" when
// range-placed) and movements[ji] join ji's movement strategy; a
// single-node plan passes nil for both.
func (lp *logicalPlan) frontSteps(shards int, placedOn, movements []string) []string {
	below := ""
	if shards > 0 {
		below = " below shuffle"
	}
	var steps []string
	for i, leg := range lp.legs {
		if leg.prune != nil {
			steps = append(steps, fmt.Sprintf("prune %s to %d/%d columns", leg.alias, len(leg.prune), len(leg.rel.Schema)))
		}
		if leg.pushed != nil {
			steps = append(steps, fmt.Sprintf("pushdown filter on %s%s: %s", leg.alias, below, leg.pushed.expr.Render()))
		}
		over := ""
		if shards > 0 {
			over = fmt.Sprintf(" over %d shards", shards)
			if placedOn[i] != "" {
				over += ", hash-placed on " + placedOn[i]
			}
		}
		steps = append(steps, fmt.Sprintf("scan %s as %s (%d rows%s)", leg.rel.Name, leg.alias, leg.rel.Len(), over))
	}
	for ji, j := range lp.joins {
		build := "left"
		if j.swapped {
			build = j.leg.alias
		}
		movement := ""
		if shards > 0 {
			movement = ", movement=" + movements[ji]
		}
		join := fmt.Sprintf("hash join #%d on %s (build=%s%s)", ji, j.on.Render(), build, movement)
		switch {
		case j.rest == nil:
			steps = append(steps, join)
		case shards > 0:
			steps = append(steps, "post-join filter: "+j.rest.expr.Render(), join)
		default:
			steps = append(steps, join, "post-join filter: "+j.rest.expr.Render())
		}
	}
	if lp.residual != nil {
		steps = append(steps, "filter: "+lp.residual.expr.Render())
	}
	return steps
}

// resources builds a batch execution's device placer (nil on the
// homogeneous engine) and memory budget (nil when unbudgeted), with their
// Explain lines; the notes say how a distributed run forks them. Both are
// per-execution, like cancellation tokens: the Result.Devices report and
// FPGA configuration state a placer carries, and a budget's spill
// aggregate, belong to exactly one run.
func (pl *planner) resources(p *Planned, placerNote, budgetNote string) error {
	if len(pl.cfg.Devices) > 0 {
		var err error
		if p.placer, err = exec.NewPlacer(pl.cfg.Devices, pl.cfg.Placement); err != nil {
			return err
		}
		p.Steps = append(p.Steps, "hetero: "+p.placer.String()+placerNote)
	}
	var err error
	if p.budget, err = pl.spillBudget(); err == nil && p.budget != nil {
		p.Steps = append(p.Steps, "spill: "+p.budget.String()+budgetNote)
	}
	return err
}

// planStmt builds the statement's logical plan and hands it to the
// configured execution. All analysis and compilation happens here (so
// Prepare surfaces errors and Explain describes the shape).
func (pl *planner) planStmt(stmt *SelectStmt) (*Planned, error) {
	switch {
	case stmt.HasAggregates() && stmt.Star:
		return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
	case !stmt.HasAggregates() && stmt.Having != nil:
		return nil, fmt.Errorf("sql: HAVING requires aggregation")
	}
	lp, err := pl.buildLogical(stmt, pl.cfg.Parallel || pl.cfg.Distributed)
	if err != nil {
		return nil, err
	}
	p := &Planned{TaggedOps: map[string]OpStatser{}}
	if pl.cfg.Distributed {
		return pl.planDist(stmt, lp, p)
	}
	return pl.planLocal(stmt, lp, p)
}

// planLocal lowers the logical plan to one operator tree.
func (pl *planner) planLocal(stmt *SelectStmt, lp *logicalPlan, p *Planned) (*Planned, error) {
	lw := &lowerer{parallel: pl.cfg.Parallel, workers: pl.cfg.Workers, cancel: pl.cancel}
	if lw.parallel {
		p.Steps = append(p.Steps, fmt.Sprintf("engine: morsel-parallel batch (%d workers, %d-row batches)",
			relational.EffectiveWorkers(lw.workers), relational.BatchSize))
	}
	// Placement and the memory budget are batch-engine resources: the
	// row engine, the oracle, places and meters nothing, so its Result
	// carries neither Devices nor Spill.
	if lw.parallel {
		if err := pl.resources(p, "", ""); err != nil {
			return nil, err
		}
		lw.placer, lw.budget = p.placer, p.budget
	}
	p.Steps = append(p.Steps, lp.frontSteps(0, nil, nil)...)

	// Scans, with pruning and pushed filters, per leg.
	legOps := make([]execNode, len(lp.legs))
	for i, leg := range lp.legs {
		lw.hintRows = leg.rel.Len()
		rel := leg.rel
		if leg.prune != nil {
			// A pruned leg scans a relation of its kept vectors, so no
			// batch windows a column the query never reads.
			all := rel.Columnar()
			cols := make([]relational.Vector, len(leg.prune))
			for k, c := range leg.prune {
				cols[k] = all[c]
			}
			rel = relational.NewColumnRelation(rel.Name, leg.schema, cols, rel.Len())
		}
		n := lw.scan(rel)
		p.TaggedOps["scan:"+leg.alias] = n.op()
		if leg.pushed != nil {
			n = lw.filter(n, leg.pushed)
			p.TaggedOps["pushdown:"+leg.alias] = n.op()
		}
		legOps[i] = n
	}

	cur := legOps[0]
	width := len(lp.legs[0].schema)
	var site *groupJoinSite
	for ji, j := range lp.joins {
		build, probe := cur, legOps[ji+1]
		buildCol, probeCol := j.leftCol, j.rightCol
		if j.swapped {
			build, probe = probe, build
			buildCol, probeCol = probeCol, buildCol
		}
		joined, err := lw.hashJoin(build, probe, buildCol, probeCol)
		if err != nil {
			return nil, err
		}
		if jn, ok := joined.bat.(*relational.BatchHashJoin); ok && groupJoins && len(lp.joins) == 1 && j.rest == nil && lp.residual == nil {
			site = &groupJoinSite{join: jn, build: lp.legs[0], probe: j.leg, buildCol: buildCol}
			if j.swapped {
				site.build, site.probe, site.buildAt = j.leg, lp.legs[0], width
			}
		}
		p.TaggedOps[fmt.Sprintf("join:%d", ji)] = joined.op()
		if j.swapped {
			if joined, err = reorderColumns(lw, joined, len(j.leg.schema), width); err != nil {
				return nil, err
			}
		}
		width += len(j.leg.schema)
		lw.hintRows = j.size
		cur = lw.filter(joined, j.rest)
	}
	if lp.residual != nil {
		cur = lw.filter(cur, lp.residual)
		p.TaggedOps["where"] = cur.op()
	}

	if stmt.HasAggregates() {
		return pl.planAggregate(stmt, p, lw, cur, lp.scope, site)
	}
	cur, err := pl.orderProjectLimit(stmt, p, lw, selectItems(stmt, lp.scope), cur, lp.scope)
	if err != nil {
		return nil, err
	}
	return p.runAs(lw, cur), nil
}

// selectItems is the statement's select list, with SELECT * expanded into
// one item per visible column (appended to any explicit items).
func selectItems(stmt *SelectStmt, sc *scope) []SelectItem {
	items := stmt.Items
	if stmt.Star {
		for _, e := range sc.entries {
			items = append(items, SelectItem{E: &ColRef{Table: e.qualifier, Name: e.name}})
		}
	}
	return items
}

// orderProjectLimit plans the tail every query shares — ORDER BY (keys
// evaluate over the input scope, before projection), the select-item
// projection, LIMIT. On the batch engine, when the projection only
// passes columns through, ORDER BY + LIMIT n lowers to one top-k operator
// instead of a full sort whose output the limit then discards.
func (pl *planner) orderProjectLimit(stmt *SelectStmt, p *Planned, lw *lowerer, items []SelectItem, cur execNode, sc *scope) (execNode, error) {
	schema, exprs, err := compileItems(items, sc, schemaOf(cur))
	if err != nil {
		return execNode{}, err
	}
	limit := stmt.Limit
	if len(stmt.OrderBy) > 0 {
		topK := -1
		if limit >= 0 && cur.bat != nil && allPassThrough(exprs) {
			topK, limit = limit, -1
		}
		if cur, err = pl.sortOver(lw, stmt.OrderBy, items, cur, sc, topK); err != nil {
			return execNode{}, err
		}
		p.TaggedOps["sort"] = cur.op()
		if topK >= 0 {
			p.Steps = append(p.Steps, fmt.Sprintf("top-k %d", topK))
		} else {
			p.Steps = append(p.Steps, "sort")
		}
	}
	if cur, err = lw.project(cur, schema, exprs); err != nil {
		return execNode{}, err
	}
	p.Steps = append(p.Steps, "project "+itemNames(items))
	if limit >= 0 {
		cur = lw.limit(cur, limit)
		p.TaggedOps["limit"] = cur.op()
		p.Steps = append(p.Steps, fmt.Sprintf("limit %d", limit))
	}
	return cur, nil
}

// allPassThrough reports whether a projection only re-orders child
// columns — a 1:1 row map a LIMIT commutes with.
func allPassThrough(pe []relational.ProjExpr) bool {
	for _, e := range pe {
		if e.Col < 0 {
			return false
		}
	}
	return true
}

// aggPlan is the compiled shape of an aggregation: the pre-projection
// feeding the aggregate (group expressions then aggregate arguments) and
// the aggregate specs plus the result types the post-aggregation scope
// binds. Both planners build it once and lower it differently — the
// single-node path into one BatchGroupAgg, the distributed path into
// per-shard partials with a coordinator merge.
type aggPlan struct {
	aggs       []*AggExpr
	preSchema  relational.Schema
	pre        []relational.ProjExpr
	groupCols  []int
	groupTypes []valType
	aggSpecs   []relational.AggSpec
	aggTypes   []valType
}

// buildAggPlan gathers the statement's distinct aggregates and compiles
// the pre-projection against sc.
func buildAggPlan(stmt *SelectStmt, sc *scope, childSchema relational.Schema) (*aggPlan, error) {
	ap := &aggPlan{}
	aggSeen := map[string]*AggExpr{}
	for _, it := range stmt.Items {
		collectAggs(it.E, aggSeen, &ap.aggs)
	}
	if stmt.Having != nil {
		collectAggs(stmt.Having, aggSeen, &ap.aggs)
	}
	for _, o := range stmt.OrderBy {
		collectAggs(o.E, aggSeen, &ap.aggs)
	}

	ap.groupCols = make([]int, len(stmt.GroupBy))
	ap.groupTypes = make([]valType, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		c, err := sc.compile(g)
		if err != nil {
			return nil, err
		}
		ap.groupCols[i] = i
		ap.groupTypes[i] = c.typ
		ap.preSchema = append(ap.preSchema, relational.Column{Name: fmt.Sprintf("g%d", i), Type: toRelType(c.typ)})
		ap.pre = append(ap.pre, projExpr(sc, g, c, childSchema))
	}
	ap.aggTypes = make([]valType, len(ap.aggs))
	for i, a := range ap.aggs {
		col := -1
		argT := tInt
		if !a.Star {
			c, err := sc.compile(a.Arg)
			if err != nil {
				return nil, err
			}
			if c.typ == tBool {
				return nil, fmt.Errorf("sql: aggregate over boolean expression %s", a.Render())
			}
			if (a.Fn == "sum" || a.Fn == "avg") && c.typ == tString {
				return nil, fmt.Errorf("sql: %s over string expression", a.Fn)
			}
			col = len(ap.preSchema)
			argT = c.typ
			ap.preSchema = append(ap.preSchema, relational.Column{Name: fmt.Sprintf("a%d", i), Type: toRelType(c.typ)})
			ap.pre = append(ap.pre, projExpr(sc, a.Arg, c, childSchema))
		}
		fn := map[string]relational.AggFn{
			"count": relational.CountAgg, "sum": relational.SumAgg,
			"avg": relational.AvgAgg, "min": relational.MinAgg, "max": relational.MaxAgg,
		}[a.Fn]
		ap.aggSpecs = append(ap.aggSpecs, relational.AggSpec{Fn: fn, Col: col, Name: a.Render()})
		switch a.Fn {
		case "count":
			ap.aggTypes[i] = tInt
		case "avg":
			ap.aggTypes[i] = tFloat
		default:
			ap.aggTypes[i] = argT
		}
	}
	return ap, nil
}

// postScope binds group expressions and aggregates (by rendering) to the
// aggregate output columns.
func (ap *aggPlan) postScope(stmt *SelectStmt) *scope {
	post := &scope{exprBind: map[string]boundExpr{}}
	for i, g := range stmt.GroupBy {
		post.exprBind[g.Render()] = boundExpr{index: i, typ: ap.groupTypes[i]}
		// A bare group-by column is also addressable unqualified.
		if cr, ok := g.(*ColRef); ok && cr.Table != "" {
			post.exprBind[(&ColRef{Name: cr.Name}).Render()] = boundExpr{index: i, typ: ap.groupTypes[i]}
		}
	}
	aggOutBase := len(stmt.GroupBy)
	for i, a := range ap.aggs {
		post.exprBind[a.Render()] = boundExpr{index: aggOutBase + i, typ: ap.aggTypes[i]}
	}
	return post
}

// planAggregate handles GROUP BY / aggregate queries: pre-project group
// keys and aggregate arguments, aggregate, then sort/project/limit over
// the aggregated scope. site, when set, is the lone join below, which the
// aggregate may run as a group-join over.
func (pl *planner) planAggregate(stmt *SelectStmt, p *Planned, lw *lowerer, cur execNode, sc *scope, site *groupJoinSite) (*Planned, error) {
	ap, err := buildAggPlan(stmt, sc, schemaOf(cur))
	if err != nil {
		return nil, err
	}
	pre, err := lw.project(cur, ap.preSchema, ap.pre)
	if err != nil {
		return nil, err
	}
	agg, err := lw.groupAgg(pre, ap.groupCols, ap.aggSpecs)
	if err != nil {
		return nil, err
	}
	if site != nil {
		if err := site.attach(stmt, sc, ap, pre, agg); err != nil {
			return nil, err
		}
	}
	p.TaggedOps["agg"] = agg.op()
	p.Steps = append(p.Steps, fmt.Sprintf("aggregate (%d group cols, %d aggregates)", len(ap.groupCols), len(ap.aggSpecs)))
	return pl.finishAggregate(stmt, p, lw, agg, ap)
}

// groupJoins lets a single-node aggregate run as a group-join; tests turn
// it off to run the join → aggregate tree the group-join must match.
var groupJoins = true

// groupJoinSite is a single-node plan's lone join, with nothing between
// it and the aggregate but the projections: its build and probe legs,
// where the build leg's columns start in the joined scope, and the build
// key column.
type groupJoinSite struct {
	join         *relational.BatchHashJoin
	build, probe *tableLeg
	buildAt      int
	buildCol     int
}

// attach lets agg run as a group-join over the site's join when every
// GROUP BY expression is a build column other than the join key and
// every aggregate argument reads only probe columns; the arguments are
// compiled again over the probe leg. Any other statement keeps the join →
// aggregate tree, as does any run whose build key repeats (decided once
// the table is built).
func (s *groupJoinSite) attach(stmt *SelectStmt, sc *scope, ap *aggPlan, pre, agg execNode) error {
	if len(stmt.GroupBy) == 0 {
		return nil
	}
	keys := make([]int, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		cr, ok := g.(*ColRef)
		if !ok {
			return nil
		}
		ent, err := sc.resolve(cr)
		k := ent.index - s.buildAt
		if err != nil || k < 0 || k >= len(s.build.schema) || k == s.buildCol {
			return nil
		}
		keys[i] = k
	}
	psc := s.probe.scope()
	var args []relational.ProjExpr
	for _, a := range ap.aggs {
		if a.Star {
			continue
		}
		c, err := psc.compile(a.Arg)
		if err != nil {
			return nil
		}
		args = append(args, projExpr(psc, a.Arg, c, s.probe.schema))
	}
	return agg.bat.(*relational.BatchGroupAgg).GroupJoin(s.join, keys, pre.bat.(*relational.BatchProject), args)
}

// finishAggregate plans everything above the aggregate: HAVING, ORDER BY,
// projection and LIMIT over the post-aggregation scope. The distributed
// planner reuses it at the coordinator, over the merged partials.
func (pl *planner) finishAggregate(stmt *SelectStmt, p *Planned, lw *lowerer, cur2 execNode, ap *aggPlan) (*Planned, error) {
	post := ap.postScope(stmt)
	lw.hintRows = 0 // post-aggregation cardinality (group count) is unknown
	var err error
	if stmt.Having != nil {
		having, err := compileFilter(post, stmt.Having)
		if err != nil {
			return nil, err
		}
		cur2 = lw.filter(cur2, having)
		p.TaggedOps["having"] = cur2.op()
		p.Steps = append(p.Steps, "having: "+stmt.Having.Render())
	}
	if cur2, err = pl.orderProjectLimit(stmt, p, lw, stmt.Items, cur2, post); err != nil {
		return nil, err
	}
	return p.runAs(lw, cur2), nil
}

// schemaOf reads a node's schema without consuming it.
func schemaOf(n execNode) relational.Schema {
	if n.bat != nil {
		return n.bat.Schema()
	}
	return n.row.Schema()
}

// pickProjector reads column idx through.
func pickProjector(idx int) relational.Projector {
	return func(r relational.Row) (relational.Value, error) { return r[idx], nil }
}

// pickExprs is the projection list passing the given child columns
// through, in order.
func pickExprs(picks []int) []relational.ProjExpr {
	pe := make([]relational.ProjExpr, len(picks))
	for i, idx := range picks {
		pe[i] = relational.ProjExpr{Col: idx, Fn: pickProjector(idx)}
	}
	return pe
}

// projExpr lowers compiled expression c of e into a projection column: a
// pass-through when e reads one child column unchanged, else its program
// beside its row closure.
func projExpr(sc *scope, e Expr, c compiled, child relational.Schema) relational.ProjExpr {
	return relational.ProjExpr{Col: passthroughIdx(sc, e, child), Fn: c.eval, Prog: c.prog()}
}

// compileOrderKeys resolves and compiles ORDER BY items against sc, with
// aliases and 1-based positions resolving through the select items. It
// returns the key columns to materialize (types named sortkey<i>), their
// projection columns, and each key's direction — the single-node sort and
// the distributed pre-shuffle widening share it.
func compileOrderKeys(order []OrderItem, items []SelectItem, sc *scope, childSchema relational.Schema) ([]relational.Column, []relational.ProjExpr, []bool, error) {
	var cols []relational.Column
	var exprs []relational.ProjExpr
	var descs []bool
	for ki, o := range order {
		e := o.E
		// Position (ORDER BY 2) and alias resolution.
		if lit, ok := e.(*IntLit); ok {
			if lit.V < 1 || int(lit.V) > len(items) {
				return nil, nil, nil, fmt.Errorf("sql: ORDER BY position %d out of range", lit.V)
			}
			e = items[lit.V-1].E
		} else if cr, ok := e.(*ColRef); ok && cr.Table == "" {
			for _, it := range items {
				if it.Alias == cr.Name {
					e = it.E
					break
				}
			}
		}
		c, err := sc.compile(e)
		if err != nil {
			return nil, nil, nil, err
		}
		cols = append(cols, relational.Column{Name: fmt.Sprintf("sortkey%d", ki), Type: toRelType(c.typ)})
		exprs = append(exprs, projExpr(sc, e, c, childSchema))
		descs = append(descs, o.Desc)
	}
	return cols, exprs, descs, nil
}

// sortOver plans a sort whose keys are ORDER BY items resolved against
// sc, with aliases and 1-based positions resolving through the select
// items. topK >= 0 keeps only the first topK rows of the order.
func (pl *planner) sortOver(lw *lowerer, order []OrderItem, items []SelectItem, child execNode, sc *scope, topK int) (execNode, error) {
	// The sort operator orders by concrete columns, so materialize the
	// key expressions as extra columns, sort, then strip them.
	childSchema := schemaOf(child)
	width := len(childSchema)
	keyCols, keyExprs, descs, err := compileOrderKeys(order, items, sc, childSchema)
	if err != nil {
		return execNode{}, err
	}
	schema := append(append(relational.Schema{}, childSchema...), keyCols...)
	exprs := append(pickExprs(identityPicks(width)), keyExprs...)
	widened, err := lw.project(child, schema, exprs)
	if err != nil {
		return execNode{}, err
	}
	return sortByTrailingKeys(lw, widened, descs, topK)
}

// sortByTrailingKeys sorts n by its last len(descs) columns — materialized
// ORDER BY keys, each with its direction — and strips them again. topK >=
// 0 keeps only the first topK rows of the order.
func sortByTrailingKeys(lw *lowerer, n execNode, descs []bool, topK int) (execNode, error) {
	schema := schemaOf(n)
	width := len(schema) - len(descs)
	sorted, err := lw.sort(n, sortKeysAt(width, descs), topK)
	if err != nil {
		return execNode{}, err
	}
	return lw.project(sorted, schema[:width], pickExprs(identityPicks(width)))
}

// sortKeysAt returns the sort keys over columns width, width+1, … with
// the given directions.
func sortKeysAt(width int, descs []bool) []relational.SortKey {
	keys := make([]relational.SortKey, len(descs))
	for ki, desc := range descs {
		keys[ki] = relational.SortKey{Col: width + ki, Desc: desc}
	}
	return keys
}

// compileItems compiles the select items against sc into the output
// schema and projection columns.
func compileItems(items []SelectItem, sc *scope, childSchema relational.Schema) (relational.Schema, []relational.ProjExpr, error) {
	var schema relational.Schema
	var exprs []relational.ProjExpr
	for _, it := range items {
		c, err := sc.compile(it.E)
		if err != nil {
			return nil, nil, err
		}
		schema = append(schema, relational.Column{Name: it.OutputName(), Type: toRelType(c.typ)})
		exprs = append(exprs, projExpr(sc, it.E, c, childSchema))
	}
	return schema, exprs, nil
}

func itemNames(items []SelectItem) string {
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = it.OutputName()
	}
	return strings.Join(names, ", ")
}

// soleLeg returns the single leg all of e's columns resolve into, or nil.
func (pl *planner) soleLeg(e Expr, legs []*tableLeg) *tableLeg {
	var cols []*ColRef
	collectCols(e, &cols)
	if len(cols) == 0 {
		return nil
	}
	var owner *tableLeg
	for _, c := range cols {
		var match *tableLeg
		for _, leg := range legs {
			if c.Table != "" && c.Table != leg.alias {
				continue
			}
			if leg.rel.Schema.ColIndex(c.Name) >= 0 {
				if match != nil {
					return nil // ambiguous bare column: leave in residual
				}
				match = leg
			}
		}
		if match == nil {
			return nil
		}
		if owner == nil {
			owner = match
		} else if owner != match {
			return nil
		}
	}
	return owner
}

// splitJoinOn extracts one left.col = right.col equality from an ON
// expression; remaining conjuncts are returned as a residual filter over
// the combined scope.
func (pl *planner) splitJoinOn(on Expr, left, right *scope) (leftCol, rightCol int, residual Expr, err error) {
	conjuncts := splitConjuncts(on)
	eqIdx := -1
	for i, c := range conjuncts {
		b, ok := c.(*BinExpr)
		if !ok || b.Op != "=" {
			continue
		}
		lc, lok := b.L.(*ColRef)
		rc, rok := b.R.(*ColRef)
		if !lok || !rok {
			continue
		}
		// Try L in left scope, R in right scope; then swapped.
		if le, lerr := left.resolve(lc); lerr == nil {
			if re, rerr := right.resolve(rc); rerr == nil {
				leftCol, rightCol, eqIdx = le.index, re.index, i
				break
			}
		}
		if le, lerr := left.resolve(rc); lerr == nil {
			if re, rerr := right.resolve(lc); rerr == nil {
				leftCol, rightCol, eqIdx = le.index, re.index, i
				break
			}
		}
	}
	if eqIdx < 0 {
		return 0, 0, nil, fmt.Errorf("sql: JOIN ON must contain an equality between the two tables: %s", on.Render())
	}
	rest := append(append([]Expr{}, conjuncts[:eqIdx]...), conjuncts[eqIdx+1:]...)
	return leftCol, rightCol, joinConjuncts(rest), nil
}

// reorderColumns re-projects a swapped join output (right ++ left ++
// rest) back to canonical (left ++ right ++ rest); rest is the hidden
// seq column on distributed fragments and empty otherwise.
func reorderColumns(lw *lowerer, n execNode, rightWidth, leftWidth int) (execNode, error) {
	in := schemaOf(n)
	if len(in) < rightWidth+leftWidth {
		return execNode{}, fmt.Errorf("sql: reorder width mismatch: %d < %d+%d", len(in), rightWidth, leftWidth)
	}
	picks := make([]int, 0, len(in))
	for i := 0; i < leftWidth; i++ {
		picks = append(picks, rightWidth+i)
	}
	for i := 0; i < rightWidth; i++ {
		picks = append(picks, i)
	}
	for i := rightWidth + leftWidth; i < len(in); i++ {
		picks = append(picks, i)
	}
	schema := make(relational.Schema, len(picks))
	for i, idx := range picks {
		schema[i] = in[idx]
	}
	return lw.project(n, schema, pickExprs(picks))
}
