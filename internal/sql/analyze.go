package sql

import (
	"fmt"

	"repro/internal/kernels"
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

// compiled is an expression compiled in one pass into its two forms:
// eval, the row closure the row engine — the oracle — runs, and the typed
// column program the batch engine runs, vec for a value and pred for a
// boolean (a boolean read back from a column has both).
type compiled struct {
	eval relational.Projector
	typ  valType
	vec  relational.VecExpr
	pred relational.VecPred
}

// prog is the value program: a computed boolean reads as Int 0/1.
func (c compiled) prog() relational.VecExpr {
	if c.vec != nil {
		return c.vec
	}
	return relational.PredValue(c.pred)
}

// column compiles a read of column idx, of type t.
func column(idx int, t valType) compiled {
	c := compiled{
		eval: func(r relational.Row) (relational.Value, error) { return r[idx], nil },
		typ:  t,
		vec:  relational.ColumnExpr(idx, toRelType(t)),
	}
	if t == tBool {
		c.pred = relational.NonZero(c.vec)
	}
	return c
}

// literal compiles a constant.
func literal(v relational.Value, t valType) compiled {
	return compiled{eval: func(relational.Row) (relational.Value, error) { return v, nil }, typ: t, vec: relational.Const(v)}
}

// boolV is a boolean as the row closures return it.
func boolV(b bool) relational.Value {
	if b {
		return relational.IntV(1)
	}
	return relational.IntV(0)
}

var (
	cmpOps = map[string]relational.CmpOp{
		"=": relational.OpEq, "!=": relational.OpNe, "<": relational.OpLt,
		"<=": relational.OpLe, ">": relational.OpGt, ">=": relational.OpGe,
	}
	arithOps = map[string]relational.ArithOp{
		"+": kernels.Add, "-": kernels.Sub, "*": kernels.Mul, "/": kernels.Div, "%": kernels.Mod,
	}
)

// compile type-checks and compiles an expression against the scope.
// Aggregates are only legal when bound in the scope (post-aggregation);
// elsewhere they are an error.
func (s *scope) compile(e Expr) (compiled, error) {
	// Expression bindings take precedence: a bound subtree (group expr or
	// aggregate) reads its precomputed column.
	if s.exprBind != nil {
		if b, ok := s.exprBind[e.Render()]; ok {
			return column(b.index, b.typ), nil
		}
	}
	switch x := e.(type) {
	case *IntLit:
		return literal(relational.IntV(x.V), tInt), nil
	case *FloatLit:
		return literal(relational.FloatV(x.V), tFloat), nil
	case *StringLit:
		return literal(relational.StringV(x.V), tString), nil
	case *ColRef:
		ent, err := s.resolve(x)
		if err != nil {
			return compiled{}, err
		}
		return column(ent.index, ent.typ), nil
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
			return compiled{typ: inner.typ, vec: relational.Neg(inner.vec), eval: func(r relational.Row) (relational.Value, error) {
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
			return compiled{typ: tBool, pred: relational.Not(inner.pred), eval: func(r relational.Row) (relational.Value, error) {
				v, err := inner.eval(r)
				if err != nil {
					return relational.Value{}, err
				}
				return boolV(v.I == 0), nil
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
		pred := relational.Or(l.pred, r.pred)
		if isAnd {
			pred = relational.And(l.pred, r.pred)
		}
		return compiled{typ: tBool, pred: pred, eval: func(row relational.Row) (relational.Value, error) {
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
			return boolV(rv.I != 0), nil
		}}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		if (l.typ == tString) != (r.typ == tString) || l.typ == tBool || r.typ == tBool {
			return compiled{}, fmt.Errorf("sql: cannot compare %s with %s", l.typ, r.typ)
		}
		op := cmpOps[x.Op]
		return compiled{typ: tBool, pred: relational.Cmp(op, l.vec, r.vec), eval: func(row relational.Row) (relational.Value, error) {
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
			return boolV(op.Holds(c)), nil
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
		return compiled{typ: outT, vec: relational.Arith(arithOps[op], l.vec, r.vec), eval: func(row relational.Row) (relational.Value, error) {
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
						return relational.Value{}, relational.ErrModuloByZero
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
					return relational.Value{}, relational.ErrDivisionByZero
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
