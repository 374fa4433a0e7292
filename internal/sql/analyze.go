package sql

import (
	"fmt"

	"repro/internal/relational"
)

// valType is the SQL-level expression type. Booleans exist only during
// analysis; at runtime they are Int 0/1.
type valType int

const (
	tInt valType = iota
	tFloat
	tString
	tBool
)

func (t valType) String() string {
	switch t {
	case tInt:
		return "int"
	case tFloat:
		return "float"
	case tString:
		return "string"
	case tBool:
		return "bool"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

func fromRelType(t relational.Type) valType {
	switch t {
	case relational.Int:
		return tInt
	case relational.Float:
		return tFloat
	default:
		return tString
	}
}

func toRelType(t valType) relational.Type {
	switch t {
	case tInt, tBool:
		return relational.Int
	case tFloat:
		return relational.Float
	default:
		return relational.String
	}
}

// scopeEntry binds one visible column.
type scopeEntry struct {
	qualifier string // table alias; "" for synthetic columns
	name      string
	typ       valType
	index     int
}

// scope is the set of columns visible to an expression, plus optional
// expression bindings (post-aggregation: group exprs and aggregates bound
// by their canonical rendering).
type scope struct {
	entries []scopeEntry
	// exprBind maps Expr.Render() of pre-computed expressions to the
	// column index holding their value, with its type.
	exprBind map[string]boundExpr
}

type boundExpr struct {
	index int
	typ   valType
}

// addTable appends a table's columns under its alias.
func (s *scope) addTable(alias string, schema relational.Schema, offset int) {
	for i, c := range schema {
		s.entries = append(s.entries, scopeEntry{
			qualifier: alias, name: c.Name, typ: fromRelType(c.Type), index: offset + i,
		})
	}
}

// resolve finds a column reference, enforcing unambiguity for bare names.
func (s *scope) resolve(c *ColRef) (scopeEntry, error) {
	var found []scopeEntry
	for _, e := range s.entries {
		if e.name != c.Name {
			continue
		}
		if c.Table != "" && e.qualifier != c.Table {
			continue
		}
		found = append(found, e)
	}
	switch len(found) {
	case 0:
		return scopeEntry{}, fmt.Errorf("sql: unknown column %q", c.Render())
	case 1:
		return found[0], nil
	default:
		return scopeEntry{}, fmt.Errorf("sql: ambiguous column %q (qualify it)", c.Render())
	}
}

// compiled is an executable expression.
type compiled struct {
	eval relational.Projector
	typ  valType
	// cell, when set, is the same expression read unboxed off a batch's
	// typed vectors. Only shapes whose operand types are proven at plan
	// time and that cannot fail at run time have one: numeric columns and
	// literals under negation, +, - and *.
	cell cellFn
}

// cellFn evaluates a numeric expression for row r of a batch's columns:
// i is set for tInt expressions, f for tFloat ones, neither when the
// expression has no unboxed form.
type cellFn struct {
	i func(cols []relational.Vector, r int) int64
	f func(cols []relational.Vector, r int) float64
}

func (c cellFn) ok() bool { return c.i != nil || c.f != nil }

// float reads the cell as float64, converting an Int cell the way
// Value.AsFloat does.
func (c cellFn) float() func([]relational.Vector, int) float64 {
	if c.f != nil {
		return c.f
	}
	i := c.i
	return func(cols []relational.Vector, r int) float64 { return float64(i(cols, r)) }
}

// columnCell reads column idx of type t unboxed (no form for strings and
// booleans).
func columnCell(idx int, t valType) cellFn {
	switch t {
	case tInt:
		return cellFn{i: func(cols []relational.Vector, r int) int64 { return cols[idx].Ints[r] }}
	case tFloat:
		return cellFn{f: func(cols []relational.Vector, r int) float64 { return cols[idx].Floats[r] }}
	}
	return cellFn{}
}

// arithCell is the unboxed form of l op r for the operators that cannot
// fail, with the row closure's typing: Int op Int stays Int, anything
// else computes in float64.
func arithCell(op string, l, r cellFn) cellFn {
	if !l.ok() || !r.ok() {
		return cellFn{}
	}
	if l.i != nil && r.i != nil {
		li, ri := l.i, r.i
		switch op {
		case "+":
			return cellFn{i: func(c []relational.Vector, n int) int64 { return li(c, n) + ri(c, n) }}
		case "-":
			return cellFn{i: func(c []relational.Vector, n int) int64 { return li(c, n) - ri(c, n) }}
		case "*":
			return cellFn{i: func(c []relational.Vector, n int) int64 { return li(c, n) * ri(c, n) }}
		}
		return cellFn{}
	}
	lf, rf := l.float(), r.float()
	switch op {
	case "+":
		return cellFn{f: func(c []relational.Vector, n int) float64 { return lf(c, n) + rf(c, n) }}
	case "-":
		return cellFn{f: func(c []relational.Vector, n int) float64 { return lf(c, n) - rf(c, n) }}
	case "*":
		return cellFn{f: func(c []relational.Vector, n int) float64 { return lf(c, n) * rf(c, n) }}
	}
	return cellFn{}
}

// vecProjector returns the batch form of the expression — one typed loop
// over the rows — or nil when it has no unboxed form.
func (c compiled) vecProjector() relational.VecProjector {
	switch {
	case c.cell.i != nil:
		fn := c.cell.i
		return func(b *relational.Batch) relational.Vector {
			out := make([]int64, b.Len())
			for r := range out {
				out[r] = fn(b.Cols, r)
			}
			return relational.Vector{T: relational.Int, Ints: out}
		}
	case c.cell.f != nil:
		fn := c.cell.f
		return func(b *relational.Batch) relational.Vector {
			out := make([]float64, b.Len())
			for r := range out {
				out[r] = fn(b.Cols, r)
			}
			return relational.Vector{T: relational.Float, Floats: out}
		}
	}
	return nil
}

// compile type-checks and compiles an expression against the scope.
// Aggregates are only legal when bound in the scope (post-aggregation);
// elsewhere they are an error.
func (s *scope) compile(e Expr) (compiled, error) {
	// Expression bindings take precedence: a bound subtree (group expr or
	// aggregate) reads its precomputed column.
	if s.exprBind != nil {
		if b, ok := s.exprBind[e.Render()]; ok {
			idx := b.index
			return compiled{
				eval: func(r relational.Row) (relational.Value, error) { return r[idx], nil },
				typ:  b.typ,
				cell: columnCell(idx, b.typ),
			}, nil
		}
	}
	switch x := e.(type) {
	case *IntLit:
		v := relational.IntV(x.V)
		return compiled{eval: func(relational.Row) (relational.Value, error) { return v, nil }, typ: tInt,
			cell: cellFn{i: func([]relational.Vector, int) int64 { return v.I }}}, nil
	case *FloatLit:
		v := relational.FloatV(x.V)
		return compiled{eval: func(relational.Row) (relational.Value, error) { return v, nil }, typ: tFloat,
			cell: cellFn{f: func([]relational.Vector, int) float64 { return v.F }}}, nil
	case *StringLit:
		v := relational.StringV(x.V)
		return compiled{eval: func(relational.Row) (relational.Value, error) { return v, nil }, typ: tString}, nil
	case *ColRef:
		ent, err := s.resolve(x)
		if err != nil {
			return compiled{}, err
		}
		idx := ent.index
		return compiled{
			eval: func(r relational.Row) (relational.Value, error) { return r[idx], nil },
			typ:  ent.typ,
			cell: columnCell(idx, ent.typ),
		}, nil
	case *UnaryExpr:
		inner, err := s.compile(x.E)
		if err != nil {
			return compiled{}, err
		}
		switch x.Op {
		case "-":
			if inner.typ != tInt && inner.typ != tFloat {
				return compiled{}, fmt.Errorf("sql: cannot negate %s", inner.typ)
			}
			t := inner.typ
			var neg cellFn
			if ci := inner.cell.i; ci != nil {
				neg.i = func(c []relational.Vector, n int) int64 { return -ci(c, n) }
			} else if cf := inner.cell.f; cf != nil {
				neg.f = func(c []relational.Vector, n int) float64 { return -cf(c, n) }
			}
			return compiled{typ: t, cell: neg, eval: func(r relational.Row) (relational.Value, error) {
				v, err := inner.eval(r)
				if err != nil {
					return relational.Value{}, err
				}
				if v.T == relational.Int {
					return relational.IntV(-v.I), nil
				}
				return relational.FloatV(-v.F), nil
			}}, nil
		case "not":
			if inner.typ != tBool {
				return compiled{}, fmt.Errorf("sql: NOT requires a boolean, got %s", inner.typ)
			}
			return compiled{typ: tBool, eval: func(r relational.Row) (relational.Value, error) {
				v, err := inner.eval(r)
				if err != nil {
					return relational.Value{}, err
				}
				if v.I == 0 {
					return relational.IntV(1), nil
				}
				return relational.IntV(0), nil
			}}, nil
		default:
			return compiled{}, fmt.Errorf("sql: unknown unary operator %q", x.Op)
		}
	case *BinExpr:
		return s.compileBin(x)
	case *AggExpr:
		return compiled{}, fmt.Errorf("sql: aggregate %s not allowed here", x.Render())
	default:
		return compiled{}, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

func (s *scope) compileBin(x *BinExpr) (compiled, error) {
	l, err := s.compile(x.L)
	if err != nil {
		return compiled{}, err
	}
	r, err := s.compile(x.R)
	if err != nil {
		return compiled{}, err
	}
	numeric := func(t valType) bool { return t == tInt || t == tFloat }
	switch x.Op {
	case "and", "or":
		if l.typ != tBool || r.typ != tBool {
			return compiled{}, fmt.Errorf("sql: %s requires booleans, got %s and %s", x.Op, l.typ, r.typ)
		}
		isAnd := x.Op == "and"
		return compiled{typ: tBool, eval: func(row relational.Row) (relational.Value, error) {
			lv, err := l.eval(row)
			if err != nil {
				return relational.Value{}, err
			}
			// Short-circuit.
			if isAnd && lv.I == 0 {
				return relational.IntV(0), nil
			}
			if !isAnd && lv.I != 0 {
				return relational.IntV(1), nil
			}
			rv, err := r.eval(row)
			if err != nil {
				return relational.Value{}, err
			}
			if rv.I != 0 {
				return relational.IntV(1), nil
			}
			return relational.IntV(0), nil
		}}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		if (l.typ == tString) != (r.typ == tString) || l.typ == tBool || r.typ == tBool {
			return compiled{}, fmt.Errorf("sql: cannot compare %s with %s", l.typ, r.typ)
		}
		op := x.Op
		return compiled{typ: tBool, eval: func(row relational.Row) (relational.Value, error) {
			lv, err := l.eval(row)
			if err != nil {
				return relational.Value{}, err
			}
			rv, err := r.eval(row)
			if err != nil {
				return relational.Value{}, err
			}
			c, err := relational.Compare(lv, rv)
			if err != nil {
				return relational.Value{}, err
			}
			ok := false
			switch op {
			case "=":
				ok = c == 0
			case "!=":
				ok = c != 0
			case "<":
				ok = c < 0
			case "<=":
				ok = c <= 0
			case ">":
				ok = c > 0
			case ">=":
				ok = c >= 0
			}
			if ok {
				return relational.IntV(1), nil
			}
			return relational.IntV(0), nil
		}}, nil
	case "+", "-", "*", "/", "%":
		if !numeric(l.typ) || !numeric(r.typ) {
			return compiled{}, fmt.Errorf("sql: arithmetic %q requires numbers, got %s and %s", x.Op, l.typ, r.typ)
		}
		if x.Op == "%" && (l.typ != tInt || r.typ != tInt) {
			return compiled{}, fmt.Errorf("sql: %% requires integers")
		}
		outT := tFloat
		if x.Op != "/" && l.typ == tInt && r.typ == tInt {
			outT = tInt
		}
		op := x.Op
		return compiled{typ: outT, cell: arithCell(op, l.cell, r.cell), eval: func(row relational.Row) (relational.Value, error) {
			lv, err := l.eval(row)
			if err != nil {
				return relational.Value{}, err
			}
			rv, err := r.eval(row)
			if err != nil {
				return relational.Value{}, err
			}
			if outT == tInt {
				switch op {
				case "+":
					return relational.IntV(lv.I + rv.I), nil
				case "-":
					return relational.IntV(lv.I - rv.I), nil
				case "*":
					return relational.IntV(lv.I * rv.I), nil
				case "%":
					if rv.I == 0 {
						return relational.Value{}, fmt.Errorf("sql: modulo by zero")
					}
					return relational.IntV(lv.I % rv.I), nil
				}
			}
			lf, err := lv.AsFloat()
			if err != nil {
				return relational.Value{}, err
			}
			rf, err := rv.AsFloat()
			if err != nil {
				return relational.Value{}, err
			}
			switch op {
			case "+":
				return relational.FloatV(lf + rf), nil
			case "-":
				return relational.FloatV(lf - rf), nil
			case "*":
				return relational.FloatV(lf * rf), nil
			case "/":
				if rf == 0 {
					return relational.Value{}, fmt.Errorf("sql: division by zero")
				}
				return relational.FloatV(lf / rf), nil
			}
			return relational.Value{}, fmt.Errorf("sql: unreachable arithmetic op %q", op)
		}}, nil
	default:
		return compiled{}, fmt.Errorf("sql: unknown operator %q", x.Op)
	}
}

// collectAggs gathers distinct aggregate calls (by rendering) in
// depth-first order.
func collectAggs(e Expr, seen map[string]*AggExpr, order *[]*AggExpr) {
	switch x := e.(type) {
	case *AggExpr:
		key := x.Render()
		if _, ok := seen[key]; !ok {
			seen[key] = x
			*order = append(*order, x)
		}
	case *BinExpr:
		collectAggs(x.L, seen, order)
		collectAggs(x.R, seen, order)
	case *UnaryExpr:
		collectAggs(x.E, seen, order)
	}
}

// collectCols gathers every column reference in an expression.
func collectCols(e Expr, out *[]*ColRef) {
	switch x := e.(type) {
	case *ColRef:
		*out = append(*out, x)
	case *BinExpr:
		collectCols(x.L, out)
		collectCols(x.R, out)
	case *UnaryExpr:
		collectCols(x.E, out)
	case *AggExpr:
		if x.Arg != nil {
			collectCols(x.Arg, out)
		}
	}
}

// splitConjuncts flattens a chain of ANDs.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinExpr); ok && b.Op == "and" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// joinConjuncts rebuilds an AND chain (nil for empty input).
func joinConjuncts(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &BinExpr{Op: "and", L: out, R: e}
	}
	return out
}

// foldConstants evaluates literal-only subtrees at plan time.
func foldConstants(e Expr) Expr {
	switch x := e.(type) {
	case *BinExpr:
		l := foldConstants(x.L)
		r := foldConstants(x.R)
		if li, ok := l.(*IntLit); ok {
			if ri, ok2 := r.(*IntLit); ok2 {
				switch x.Op {
				case "+":
					return &IntLit{V: li.V + ri.V}
				case "-":
					return &IntLit{V: li.V - ri.V}
				case "*":
					return &IntLit{V: li.V * ri.V}
				case "%":
					if ri.V != 0 {
						return &IntLit{V: li.V % ri.V}
					}
				case "/":
					if ri.V != 0 {
						return &FloatLit{V: float64(li.V) / float64(ri.V)}
					}
				}
			}
		}
		if lf, ok := litFloat(l); ok {
			if rf, ok2 := litFloat(r); ok2 {
				switch x.Op {
				case "+":
					return &FloatLit{V: lf + rf}
				case "-":
					return &FloatLit{V: lf - rf}
				case "*":
					return &FloatLit{V: lf * rf}
				case "/":
					if rf != 0 {
						return &FloatLit{V: lf / rf}
					}
				}
			}
		}
		return &BinExpr{Op: x.Op, L: l, R: r}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, E: foldConstants(x.E)}
	default:
		return e
	}
}

// litFloat extracts a numeric literal as float, excluding int+int pairs
// already handled.
func litFloat(e Expr) (float64, bool) {
	switch x := e.(type) {
	case *FloatLit:
		return x.V, true
	case *IntLit:
		return float64(x.V), true
	default:
		return 0, false
	}
}
