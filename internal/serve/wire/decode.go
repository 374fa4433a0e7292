package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/relational"
)

// ErrNotRows marks rows that are not shaped as rows at all: not JSON, not
// an array (or null), or holding an element that is neither an array nor
// null. A client sent something other than a table; a row the schema
// refuses is a different error.
var ErrNotRows = errors.New("wire: rows must be a JSON array of arrays")

// DecodeRows decodes raw — the rows of an ingest or table body: a JSON
// array of rows, each an array of one cell per schema column, or null —
// straight into one vector per schema column, and returns them with the
// row count. It accepts what encoding/json into [][]any followed by these
// cell rules accepts, and yields the same cells:
//
//   - an Int cell is a JSON number of integral value in int64's range, so
//     3.0 and 1e3 are 3 and 1000. An integer literal is parsed exactly,
//     where a float64 rounds past 2^53: that is the one difference.
//   - a Float cell is any JSON number in float64's range.
//   - a String cell is a JSON string. One without escapes or control
//     bytes, in valid UTF-8, is taken as it is; any other goes through
//     encoding/json.
//
// A String column comes out dictionary-coded exactly when
// relational.StringVector would code it (relational.StringBuilder). A
// refused row fails the whole call with an error naming the row, and the
// column when one cell is at fault; an error wrapping ErrNotRows means raw
// is not rows.
func DecodeRows(raw []byte, schema relational.Schema) ([]relational.Vector, int, error) {
	d := rowDecoder{b: raw}
	cols := make([]column, len(schema))
	n := 0
	switch d.next() {
	case 'n':
		if !d.literal("null") {
			return nil, 0, d.syntax()
		}
	case '[':
		d.i++
		if d.next() == ']' {
			d.i++
			break
		}
		for {
			start := d.i
			if err := d.row(schema, cols, n); err != nil {
				return nil, 0, err
			}
			if n++; n == 1 {
				// Size the columns for rows as long as the first.
				est := len(d.b) / (d.i - start + 1)
				for c := range cols {
					cols[c].grow(schema[c].Type, est)
				}
			}
			if d.next() != ',' {
				break
			}
			d.i++
		}
		if d.next() != ']' {
			return nil, 0, d.syntax()
		}
		d.i++
	default:
		return nil, 0, ErrNotRows
	}
	if d.ws(); d.i != len(d.b) {
		return nil, 0, d.syntax()
	}
	out := make([]relational.Vector, len(schema))
	for c, col := range schema {
		out[c] = cols[c].vector(col.Type)
	}
	return out, n, nil
}

// column accumulates one column's cells; only the field of its type is used.
type column struct {
	ints   []int64
	floats []float64
	strs   relational.StringBuilder
}

// grow makes room for n more cells.
func (c *column) grow(t relational.Type, n int) {
	switch t {
	case relational.Int:
		c.ints = slices.Grow(c.ints, n)
	case relational.Float:
		c.floats = slices.Grow(c.floats, n)
	default:
		c.strs.Grow(n)
	}
}

func (c *column) vector(t relational.Type) relational.Vector {
	switch t {
	case relational.Int:
		return relational.Vector{T: t, Ints: c.ints}
	case relational.Float:
		return relational.Vector{T: t, Floats: c.floats}
	default:
		return c.strs.Vector()
	}
}

// rowDecoder walks one JSON text; i is the offset of the next byte.
type rowDecoder struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (d *rowDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next skips whitespace and returns the next byte, 0 at the end.
func (d *rowDecoder) next() byte {
	if d.ws(); d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// literal consumes lit when the input continues with it.
func (d *rowDecoder) literal(lit string) bool {
	if !bytes.HasPrefix(d.b[d.i:], []byte(lit)) {
		return false
	}
	d.i += len(lit)
	return true
}

func (d *rowDecoder) syntax() error {
	return fmt.Errorf("%w: invalid JSON at offset %d", ErrNotRows, d.i)
}

// row decodes row rn into cols.
func (d *rowDecoder) row(schema relational.Schema, cols []column, rn int) error {
	switch d.next() {
	case '[':
		d.i++
	case 'n':
		if !d.literal("null") {
			return d.syntax()
		}
		return arityError(rn, 0, len(schema))
	case 0:
		return d.syntax()
	default:
		return fmt.Errorf("%w: row %d is not an array", ErrNotRows, rn)
	}
	if d.next() == ']' {
		d.i++
		if len(schema) != 0 {
			return arityError(rn, 0, len(schema))
		}
		return nil
	}
	for c := 0; ; c++ {
		if c == len(schema) {
			return fmt.Errorf("wire: row %d: arity > schema arity %d", rn, c)
		}
		if err := d.cell(schema[c].Type, &cols[c]); err != nil {
			if errors.Is(err, ErrNotRows) {
				return err
			}
			return fmt.Errorf("wire: row %d, column %s: %w", rn, schema[c].Name, err)
		}
		switch d.next() {
		case ',':
			d.i++
		case ']':
			d.i++
			if c+1 != len(schema) {
				return arityError(rn, c+1, len(schema))
			}
			return nil
		default:
			return d.syntax()
		}
	}
}

func arityError(rn, got, want int) error {
	return fmt.Errorf("wire: row %d: arity %d != schema arity %d", rn, got, want)
}

// cell decodes the next cell, of type t, into col.
func (d *rowDecoder) cell(t relational.Type, col *column) error {
	if d.ws(); d.i == len(d.b) {
		return d.syntax()
	}
	switch c := d.b[d.i]; {
	case c == '"':
		if t != relational.String {
			return fmt.Errorf("expected %s, got a string", kind(t))
		}
		return d.str(&col.strs)
	case c == '-' || '0' <= c && c <= '9':
		start := d.i
		integer, ok := d.number()
		if !ok {
			return d.syntax()
		}
		tok := d.b[start:d.i]
		switch t {
		case relational.Int:
			v, err := parseInt(tok, integer)
			if err != nil {
				return err
			}
			col.ints = append(col.ints, v)
			return nil
		case relational.Float:
			f, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return fmt.Errorf("number %s out of range", tok)
			}
			col.floats = append(col.floats, f)
			return nil
		default:
			return fmt.Errorf("expected string, got %s", tok)
		}
	}
	for _, lit := range []string{"null", "true", "false"} {
		if d.literal(lit) {
			return fmt.Errorf("expected %s, got %s", kind(t), lit)
		}
	}
	switch d.b[d.i] {
	case '[':
		return fmt.Errorf("expected %s, got an array", kind(t))
	case '{':
		return fmt.Errorf("expected %s, got an object", kind(t))
	}
	return d.syntax()
}

// kind names what a cell of type t must be.
func kind(t relational.Type) string {
	switch t {
	case relational.Int:
		return "integer"
	case relational.Float:
		return "number"
	default:
		return "string"
	}
}

// number consumes a JSON number and reports whether it is an integer
// literal (no fraction, no exponent); ok is false when the bytes are not a
// JSON number.
func (d *rowDecoder) number() (integer, ok bool) {
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return false, false
		}
		integer = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return false, false
		}
		integer = false
	}
	d.i = i
	return integer, true
}

// parseInt reads the JSON number tok as an Int cell: an integer literal
// exactly, any other by its float64 value, which must be integral and in
// int64's range.
func parseInt(tok []byte, integer bool) (int64, error) {
	if integer {
		if digits := bytes.TrimPrefix(tok, []byte("-")); len(digits) <= 18 {
			var v int64
			for _, c := range digits {
				v = 10*v + int64(c-'0')
			}
			if len(digits) < len(tok) {
				v = -v
			}
			return v, nil
		}
		v, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("integer %s out of range", tok)
		}
		return v, nil
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	switch {
	case err != nil || f < math.MinInt64 || f >= math.MaxInt64:
		return 0, fmt.Errorf("integer %s out of range", tok)
	case f != math.Trunc(f):
		return 0, fmt.Errorf("expected integer, got %s", tok)
	}
	return int64(f), nil
}

// str consumes a JSON string into sb.
func (d *rowDecoder) str(sb *relational.StringBuilder) error {
	b := d.b
	start, escaped, ascii := d.i+1, false, true
	j := start
	for ; j < len(b) && b[j] != '"'; j++ {
		switch c := b[j]; {
		case c == '\\':
			escaped = true
			j++
		case c < 0x20:
			escaped = true
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	if j >= len(b) {
		return d.syntax()
	}
	d.i = j + 1
	if !escaped && (ascii || utf8.Valid(b[start:j])) {
		sb.AddBytes(b[start:j])
		return nil
	}
	var s string
	if err := json.Unmarshal(b[start-1:j+1], &s); err != nil {
		return fmt.Errorf("%w: %v", ErrNotRows, err)
	}
	sb.Add(s)
	return nil
}
