// Package sql implements a SQL subset — lexer, parser, semantic analysis,
// a rule-based optimizer (constant folding, predicate pushdown, join
// build-side selection) and execution on the internal/relational engine.
// It is the "query language" endpoint of Section IV.C.1's discussion: the
// E8 experiment expresses the same analytics in SQL, MapReduce and
// dataflow form and compares the abstraction costs.
//
// Supported grammar (single SELECT, no subqueries):
//
//	SELECT <expr [AS alias]>[, ...] | *
//	FROM table [alias] [JOIN table [alias] ON a.x = b.y [AND ...]]...
//	[WHERE expr] [GROUP BY expr[, ...]] [HAVING expr]
//	[ORDER BY expr|alias|position [ASC|DESC], ...] [LIMIT n]
//
// with arithmetic (+ - * / %), comparisons, AND/OR/NOT, and the aggregates
// COUNT(*)/COUNT/SUM/AVG/MIN/MAX.
//
// Analysis (analyze.go) compiles every expression once, in one pass, into
// two forms: a row closure, which the row engine — the oracle — runs, and
// a typed column program (relational.VecExpr for a value, VecPred for a
// predicate), which the batch engine runs for every WHERE, ON and HAVING
// predicate, select item, sort key, group key and aggregate argument. The
// two agree row for row, Floats bit for bit, and fail with the same error
// (FuzzExprForms, expr_diff_test.go).
package sql

import (
	"fmt"
	"strings"
)

// TokKind classifies tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokSymbol // operators and punctuation
)

// Token is one lexeme with its position (byte offset) for error messages.
type Token struct {
	Kind TokKind
	Text string // keywords lowercased; identifiers lowercased; symbols verbatim
	Pos  int
}

// String implements fmt.Stringer.
func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

var keywords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "by": true,
	"having": true, "order": true, "limit": true, "join": true, "on": true,
	"as": true, "and": true, "or": true, "not": true, "asc": true,
	"desc": true, "count": true, "sum": true, "avg": true, "min": true,
	"max": true,
}

// Lex tokenizes input. It returns an error with byte position for any
// character it cannot start a token with or an unterminated string.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			start := i
			kind := TokInt
			for i < n && isDigit(input[i]) {
				i++
			}
			if i < n && input[i] == '.' {
				kind = TokFloat
				i++
				for i < n && isDigit(input[i]) {
					i++
				}
			}
			toks = append(toks, Token{Kind: kind, Text: input[start:i], Pos: start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := strings.ToLower(input[start:i])
			kind := TokIdent
			if keywords[word] {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Text: word, Pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					// '' escapes a quote.
					if i+1 < n && input[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string at offset %d", start)
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start})
		default:
			start := i
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "!=", "<>":
				toks = append(toks, Token{Kind: TokSymbol, Text: two, Pos: start})
				i += 2
				continue
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', '.':
				toks = append(toks, Token{Kind: TokSymbol, Text: string(c), Pos: start})
				i++
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
