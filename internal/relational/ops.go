package relational

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/kernels"
)

// Op is a volcano-style pull iterator. Construction validates; Next
// streams rows until ok is false. Errors during evaluation surface from
// Next. Operators are single-use: build a fresh tree per execution.
type Op interface {
	// Schema describes the rows Next produces.
	Schema() Schema
	// Next returns the next row. ok is false at end of stream.
	Next() (row Row, ok bool, err error)
	// Stats reports rows produced so far (for optimizer experiments).
	Stats() OpStats
}

// OpStats counts operator work.
type OpStats struct {
	RowsOut int
	// Hetero, when the operator dispatched its morsels through a device
	// placer, is the accumulated modeled heterogeneous execution cost
	// (per-device morsel counts, modeled seconds, offload overheads).
	// Nil on the homogeneous engine.
	Hetero *exec.OpCost
	// Spill, when the operator's state overflowed a memory budget, is
	// the modeled out-of-core activity (partitions evicted, bytes and
	// seconds across the tier boundary). Nil when nothing spilled.
	Spill *SpillStats
	// BuildNs is the host nanoseconds the operator spent building state
	// before its first output batch, summed over its partitions: a sort's,
	// top-k's or group-by's input, and a join's table. 0 for streaming
	// operators (scan, filter, project, limit).
	BuildNs int64
}

// Predicate decides whether a row passes a filter.
type Predicate func(Row) (bool, error)

// Projector computes one output cell from an input row.
type Projector func(Row) (Value, error)

// Scan streams a materialized relation, in either construction form. A
// row-built relation's rows are handed out as stored; a column-built
// one's vectors are read directly, boxing one fresh Row per Next, so the
// scan leaves nothing cached on the relation (RowView would pin a boxed
// copy of the whole table on it).
type Scan struct {
	rel  *Relation
	rows []Row    // row-built: the row store
	cols []Vector // column-built: the vectors
	n    int
	pos  int
	stat OpStats
}

// NewScan returns a scan over rel.
func NewScan(rel *Relation) *Scan {
	if rel.colBuilt {
		return &Scan{rel: rel, cols: rel.cols, n: rel.colRows}
	}
	return &Scan{rel: rel, rows: rel.Rows, n: len(rel.Rows)}
}

// Schema implements Op.
func (s *Scan) Schema() Schema { return s.rel.Schema }

// Next implements Op.
func (s *Scan) Next() (Row, bool, error) {
	if s.pos >= s.n {
		return nil, false, nil
	}
	var r Row
	if s.rel.colBuilt {
		r = make(Row, len(s.cols))
		for c := range s.cols {
			r[c] = s.cols[c].Value(s.pos)
		}
	} else {
		r = s.rows[s.pos]
	}
	s.pos++
	s.stat.RowsOut++
	return r, true, nil
}

// Stats implements Op.
func (s *Scan) Stats() OpStats { return s.stat }

// Filter passes rows satisfying the predicate.
type Filter struct {
	child Op
	pred  Predicate
	stat  OpStats
}

// NewFilter returns a filter over child.
func NewFilter(child Op, pred Predicate) *Filter {
	return &Filter{child: child, pred: pred}
}

// Schema implements Op.
func (f *Filter) Schema() Schema { return f.child.Schema() }

// Next implements Op.
func (f *Filter) Next() (Row, bool, error) {
	for {
		row, ok, err := f.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		pass, err := f.pred(row)
		if err != nil {
			return nil, false, err
		}
		if pass {
			f.stat.RowsOut++
			return row, true, nil
		}
	}
}

// Stats implements Op.
func (f *Filter) Stats() OpStats { return f.stat }

// Project computes derived columns.
type Project struct {
	child  Op
	schema Schema
	exprs  []Projector
	stat   OpStats
}

// NewProject returns a projection producing the given schema via exprs
// (one per output column).
func NewProject(child Op, schema Schema, exprs []Projector) (*Project, error) {
	if len(schema) != len(exprs) {
		return nil, fmt.Errorf("relational: project: %d columns but %d expressions", len(schema), len(exprs))
	}
	return &Project{child: child, schema: schema, exprs: exprs}, nil
}

// Schema implements Op.
func (p *Project) Schema() Schema { return p.schema }

// Next implements Op.
func (p *Project) Next() (Row, bool, error) {
	row, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(Row, len(p.exprs))
	for i, e := range p.exprs {
		v, err := e(row)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	p.stat.RowsOut++
	return out, true, nil
}

// Stats implements Op.
func (p *Project) Stats() OpStats { return p.stat }

// HashJoin is an inner equi-join: build side materialized into a hash
// table, probe side streamed. Output rows are build-row ++ probe-row.
type HashJoin struct {
	build, probe       Op
	buildCol, probeCol int
	schema             Schema
	table              map[string][]Row
	built              bool
	pending            []Row // remaining matches for the current probe row
	stat               OpStats
}

// NewHashJoin joins build.col == probe.col.
func NewHashJoin(build, probe Op, buildCol, probeCol int) (*HashJoin, error) {
	bs, ps := build.Schema(), probe.Schema()
	if buildCol < 0 || buildCol >= len(bs) {
		return nil, fmt.Errorf("relational: join build column %d out of range", buildCol)
	}
	if probeCol < 0 || probeCol >= len(ps) {
		return nil, fmt.Errorf("relational: join probe column %d out of range", probeCol)
	}
	return &HashJoin{
		build: build, probe: probe,
		buildCol: buildCol, probeCol: probeCol,
		schema: bs.Concat(ps),
	}, nil
}

// Schema implements Op.
func (j *HashJoin) Schema() Schema { return j.schema }

func (j *HashJoin) buildTable() error {
	j.table = map[string][]Row{}
	for {
		row, ok, err := j.build.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		k := row[j.buildCol].Key()
		j.table[k] = append(j.table[k], row)
	}
	j.built = true
	return nil
}

// Next implements Op.
func (j *HashJoin) Next() (Row, bool, error) {
	if !j.built {
		if err := j.buildTable(); err != nil {
			return nil, false, err
		}
	}
	for {
		if len(j.pending) > 0 {
			out := j.pending[0]
			j.pending = j.pending[1:]
			j.stat.RowsOut++
			return out, true, nil
		}
		prow, ok, err := j.probe.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		matches := j.table[prow[j.probeCol].Key()]
		for _, b := range matches {
			out := make(Row, 0, len(b)+len(prow))
			out = append(out, b...)
			out = append(out, prow...)
			j.pending = append(j.pending, out)
		}
	}
}

// Stats implements Op.
func (j *HashJoin) Stats() OpStats { return j.stat }

// AggFn is an aggregate function kind.
type AggFn int

// Aggregate functions.
const (
	CountAgg AggFn = iota
	SumAgg
	MinAgg
	MaxAgg
	AvgAgg
)

// String implements fmt.Stringer.
func (f AggFn) String() string {
	switch f {
	case CountAgg:
		return "count"
	case SumAgg:
		return "sum"
	case MinAgg:
		return "min"
	case MaxAgg:
		return "max"
	case AvgAgg:
		return "avg"
	default:
		return fmt.Sprintf("agg(%d)", int(f))
	}
}

// AggSpec is one aggregate over a column (Col ignored for COUNT(*) = -1).
type AggSpec struct {
	Fn  AggFn
	Col int
	// Name labels the output column.
	Name string
}

// GroupAgg groups rows by key columns and computes aggregates. It
// materializes on first Next. Output schema: group columns then aggregate
// columns; groups are emitted in first-seen order (deterministic).
type GroupAgg struct {
	child     Op
	groupCols []int
	aggs      []AggSpec
	schema    Schema

	out  []Row
	pos  int
	done bool
	stat OpStats
}

// NewGroupAgg returns a grouped aggregation. groupCols may be empty for a
// global aggregate (one output row).
func NewGroupAgg(child Op, groupCols []int, aggs []AggSpec) (*GroupAgg, error) {
	schema, err := groupAggSchema(child.Schema(), groupCols, aggs)
	if err != nil {
		return nil, err
	}
	return &GroupAgg{child: child, groupCols: groupCols, aggs: aggs, schema: schema}, nil
}

// AggOutputSchema validates and derives the output schema of a grouped
// aggregation (group columns then aggregates). It is the exported form of
// the rule the engines share, for the distributed planner: the aggregate
// splits into per-shard partials there, and the coordinator needs the
// merged schema without constructing an operator.
func AggOutputSchema(child Schema, groupCols []int, aggs []AggSpec) (Schema, error) {
	return groupAggSchema(child, groupCols, aggs)
}

// groupAggSchema validates and derives the output schema of a grouped
// aggregation (shared by the serial and batch engines).
func groupAggSchema(cs Schema, groupCols []int, aggs []AggSpec) (Schema, error) {
	var schema Schema
	for _, c := range groupCols {
		if c < 0 || c >= len(cs) {
			return nil, fmt.Errorf("relational: group column %d out of range", c)
		}
		schema = append(schema, cs[c])
	}
	for _, a := range aggs {
		if a.Fn != CountAgg && (a.Col < 0 || a.Col >= len(cs)) {
			return nil, fmt.Errorf("relational: aggregate column %d out of range", a.Col)
		}
		t := Float
		if a.Fn == CountAgg {
			t = Int
		} else if a.Fn != AvgAgg && a.Col >= 0 && cs[a.Col].Type == Int && (a.Fn == SumAgg || a.Fn == MinAgg || a.Fn == MaxAgg) {
			t = Int
		} else if (a.Fn == MinAgg || a.Fn == MaxAgg) && a.Col >= 0 && cs[a.Col].Type == String {
			t = String
		}
		name := a.Name
		if name == "" {
			name = a.Fn.String()
		}
		schema = append(schema, Column{Name: name, Type: t})
	}
	return schema, nil
}

// Schema implements Op.
func (g *GroupAgg) Schema() Schema { return g.schema }

type aggState struct {
	count int64
	sumF  float64
	sumI  int64
	minV  Value
	maxV  Value
	seen  bool
}

// observe folds one input value into the state. The serial and batch
// engines share it so their aggregate semantics match exactly.
func (st *aggState) observe(fn AggFn, v Value) error {
	st.count++
	if fn == CountAgg {
		return nil
	}
	f, err := v.AsFloat()
	if err != nil && (fn == SumAgg || fn == AvgAgg) {
		return fmt.Errorf("relational: %s over non-numeric column", fn)
	}
	if err == nil {
		st.sumF += f
		st.sumI += v.I
	}
	if !st.seen {
		st.minV, st.maxV = v, v
		st.seen = true
		return nil
	}
	if cmpExtremeValue(v, st.minV) < 0 {
		st.minV = v
	}
	if cmpExtremeValue(v, st.maxV) > 0 {
		st.maxV = v
	}
	return nil
}

// cmpExtremeValue orders a against b as MIN and MAX fold them: two Floats
// in IEEE 754 total order, as cmpExtreme orders cells; anything else as
// Compare does, values it cannot compare tying.
func cmpExtremeValue(a, b Value) int {
	if a.T == Float && b.T == Float {
		return cmp.Compare(kernels.TotalOrderKeyFloat64(a.F), kernels.TotalOrderKeyFloat64(b.F))
	}
	c, _ := Compare(a, b)
	return c
}

// mergeFrom combines a later partition's state into st (st's rows precede
// other's in serial order).
func (st *aggState) mergeFrom(other *aggState) {
	st.count += other.count
	st.sumF += other.sumF
	st.sumI += other.sumI
	if !other.seen {
		return
	}
	if !st.seen {
		st.minV, st.maxV, st.seen = other.minV, other.maxV, true
		return
	}
	if cmpExtremeValue(other.minV, st.minV) < 0 {
		st.minV = other.minV
	}
	if cmpExtremeValue(other.maxV, st.maxV) > 0 {
		st.maxV = other.maxV
	}
}

// result renders the final aggregate value for the declared output type.
func (st *aggState) result(fn AggFn, outType Type) Value {
	switch fn {
	case CountAgg:
		return IntV(st.count)
	case SumAgg:
		if outType == Int {
			return IntV(st.sumI)
		}
		return FloatV(st.sumF)
	case AvgAgg:
		if st.count == 0 {
			return FloatV(0)
		}
		return FloatV(st.sumF / float64(st.count))
	case MinAgg:
		if !st.seen {
			return zeroValue(outType)
		}
		return st.minV
	case MaxAgg:
		if !st.seen {
			return zeroValue(outType)
		}
		return st.maxV
	default:
		return Value{}
	}
}

// zeroValue is the typed zero for aggregates over empty input.
func zeroValue(t Type) Value {
	switch t {
	case Float:
		return FloatV(0)
	case String:
		return StringV("")
	default:
		return IntV(0)
	}
}

func (g *GroupAgg) materialize() error {
	type group struct {
		key    Row
		states []aggState
	}
	groups := map[string]*group{}
	var order []string
	for {
		row, ok, err := g.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		kb := ""
		for _, c := range g.groupCols {
			kb += row[c].Key() + "\x00"
		}
		gr, ok := groups[kb]
		if !ok {
			key := make(Row, len(g.groupCols))
			for i, c := range g.groupCols {
				key[i] = row[c]
			}
			gr = &group{key: key, states: make([]aggState, len(g.aggs))}
			groups[kb] = gr
			order = append(order, kb)
		}
		for i, a := range g.aggs {
			var v Value
			if a.Fn != CountAgg {
				v = row[a.Col]
			}
			if err := gr.states[i].observe(a.Fn, v); err != nil {
				return err
			}
		}
	}
	// Global aggregate over empty input still yields one row of zeros.
	if len(g.groupCols) == 0 && len(order) == 0 {
		groups[""] = &group{states: make([]aggState, len(g.aggs))}
		order = append(order, "")
	}
	for _, kb := range order {
		gr := groups[kb]
		row := gr.key.Clone()
		for i, a := range g.aggs {
			row = append(row, gr.states[i].result(a.Fn, g.schema[len(g.groupCols)+i].Type))
		}
		g.out = append(g.out, row)
	}
	g.done = true
	return nil
}

// Next implements Op.
func (g *GroupAgg) Next() (Row, bool, error) {
	if !g.done {
		if err := g.materialize(); err != nil {
			return nil, false, err
		}
	}
	if g.pos >= len(g.out) {
		return nil, false, nil
	}
	r := g.out[g.pos]
	g.pos++
	g.stat.RowsOut++
	return r, true, nil
}

// Stats implements Op.
func (g *GroupAgg) Stats() OpStats { return g.stat }

// SortKey orders by one column.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort materializes and stably sorts the child's rows.
type Sort struct {
	child Op
	keys  []SortKey

	out  []Row
	pos  int
	done bool
	err  error
	stat OpStats
}

// NewSort returns a sort over child.
func NewSort(child Op, keys []SortKey) (*Sort, error) {
	cs := child.Schema()
	for _, k := range keys {
		if k.Col < 0 || k.Col >= len(cs) {
			return nil, fmt.Errorf("relational: sort column %d out of range", k.Col)
		}
	}
	return &Sort{child: child, keys: keys}, nil
}

// Schema implements Op.
func (s *Sort) Schema() Schema { return s.child.Schema() }

func (s *Sort) materialize() error {
	for {
		row, ok, err := s.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.out = append(s.out, row)
	}
	var sortErr error
	sort.SliceStable(s.out, func(i, j int) bool {
		for _, k := range s.keys {
			c, err := orderCompare(s.out[i][k.Col], s.out[j][k.Col])
			if err != nil {
				sortErr = err
				return false
			}
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	s.done = true
	return nil
}

// orderCompare orders two sort-key cells as the batch engine's sort
// does: Compare, except that a pair with a Float orders by
// kernels.OrderKeyFloat64 — −0 ties +0, and a NaN sorts beyond ±Inf by
// its sign. Compare ties a NaN with every value, which is no order.
func orderCompare(a, b Value) (int, error) {
	if (a.T == Float || b.T == Float) && a.T != String && b.T != String {
		x, _ := a.AsFloat()
		y, _ := b.AsFloat()
		return cmp.Compare(kernels.OrderKeyFloat64(x), kernels.OrderKeyFloat64(y)), nil
	}
	return Compare(a, b)
}

// Next implements Op.
func (s *Sort) Next() (Row, bool, error) {
	if !s.done {
		if err := s.materialize(); err != nil {
			return nil, false, err
		}
	}
	if s.pos >= len(s.out) {
		return nil, false, nil
	}
	r := s.out[s.pos]
	s.pos++
	s.stat.RowsOut++
	return r, true, nil
}

// Stats implements Op.
func (s *Sort) Stats() OpStats { return s.stat }

// Limit passes at most n rows.
type Limit struct {
	child Op
	n     int
	stat  OpStats
}

// NewLimit returns a limit of n rows (n < 0 means unlimited).
func NewLimit(child Op, n int) *Limit { return &Limit{child: child, n: n} }

// Schema implements Op.
func (l *Limit) Schema() Schema { return l.child.Schema() }

// Next implements Op.
func (l *Limit) Next() (Row, bool, error) {
	if l.n >= 0 && l.stat.RowsOut >= l.n {
		return nil, false, nil
	}
	row, ok, err := l.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.stat.RowsOut++
	return row, true, nil
}

// Stats implements Op.
func (l *Limit) Stats() OpStats { return l.stat }

// Collect drains an operator into a relation (for tests and result
// rendering).
func Collect(op Op, name string) (*Relation, error) {
	rel := NewRelation(name, op.Schema())
	for {
		row, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rel, nil
		}
		rel.Rows = append(rel.Rows, row)
	}
}
