package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/relational"
)

// refDecodeRows is the reference the typed decoder is held to: rows
// decoded by encoding/json into [][]any, then each cell typed by the rules
// a float64 allows — an int must be a float64 of integral value that
// survives the round trip through int64.
func refDecodeRows(raw []byte, schema relational.Schema) ([]relational.Row, error) {
	var in [][]any
	if err := json.Unmarshal(raw, &in); err != nil {
		return nil, err
	}
	rows := make([]relational.Row, len(in))
	for rn, cells := range in {
		if len(cells) != len(schema) {
			return nil, fmt.Errorf("row %d: arity %d", rn, len(cells))
		}
		row := make(relational.Row, len(cells))
		for i, cell := range cells {
			f, isNum := cell.(float64)
			s, isStr := cell.(string)
			switch t := schema[i].Type; {
			case t == relational.Int && isNum && f == float64(int64(f)):
				row[i] = relational.IntV(int64(f))
			case t == relational.Float && isNum:
				row[i] = relational.FloatV(f)
			case t == relational.String && isStr:
				row[i] = relational.StringV(s)
			default:
				return nil, fmt.Errorf("row %d, column %d: %v", rn, i, cell)
			}
		}
		rows[rn] = row
	}
	return rows, nil
}

// schemaOf reads a schema from its letters: i Int, f Float, anything else
// String; at most four columns, at least one.
func schemaOf(types string) relational.Schema {
	schema := relational.Schema{}
	for i := 0; i < len(types) && i < 4; i++ {
		t := relational.String
		switch types[i] {
		case 'i':
			t = relational.Int
		case 'f':
			t = relational.Float
		}
		schema = append(schema, relational.Column{Name: fmt.Sprint("c", i), Type: t})
	}
	if len(schema) == 0 {
		schema = append(schema, relational.Column{Name: "c0", Type: relational.String})
	}
	return schema
}

// roundsPastFloat reports whether an Int column of raw holds a number a
// float64 cannot carry exactly — the one place the typed decoder and the
// reference may disagree.
func roundsPastFloat(raw []byte, schema relational.Schema) bool {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var in [][]any
	if dec.Decode(&in) != nil {
		return false
	}
	for _, cells := range in {
		for i, cell := range cells {
			num, ok := cell.(json.Number)
			if i >= len(schema) || schema[i].Type != relational.Int || !ok {
				continue
			}
			if f, err := num.Float64(); err == nil && math.Abs(f) >= 1<<53 {
				return true
			}
		}
	}
	return false
}

// FuzzDecodeRows holds DecodeRows to refDecodeRows: both accept or both
// refuse every input, and accepted cells are identical — Floats to the
// bit — except where an Int column holds a number past 2^53, which the
// typed decoder reads exactly. A String column must come out coded exactly
// when StringVector would code its cells. The seed corpus is in
// testdata/fuzz/FuzzDecodeRows.
func FuzzDecodeRows(f *testing.F) {
	f.Add("sif", []byte(`[["a",1,1.5],["b",-2,0]]`))
	f.Fuzz(func(t *testing.T, types string, raw []byte) {
		schema := schemaOf(types)
		cols, n, err := DecodeRows(raw, schema)
		want, refErr := refDecodeRows(raw, schema)
		if roundsPastFloat(raw, schema) {
			return
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("schema %v, rows %q: typed err %v, reference err %v", schema, raw, err, refErr)
		}
		if err != nil {
			return
		}
		if n != len(want) {
			t.Fatalf("rows %q: %d rows, reference %d", raw, n, len(want))
		}
		for c, col := range schema {
			v := &cols[c]
			if v.T != col.Type || v.Len() != n {
				t.Fatalf("rows %q: column %d is %v of %d cells", raw, c, v.T, v.Len())
			}
			var strs []string
			for r := range n {
				got, ref := v.Value(r), want[r][c]
				same := got == ref
				if col.Type == relational.Float {
					same = math.Float64bits(got.F) == math.Float64bits(ref.F)
				}
				if !same {
					t.Fatalf("rows %q: cell (%d, %d) is %#v, reference %#v", raw, r, c, got, ref)
				}
				strs = append(strs, ref.S)
			}
			if col.Type == relational.String {
				if sv := relational.StringVector(strs); (sv.Dict == nil) != (v.Dict == nil) || !reflect.DeepEqual(sv.Dict, v.Dict) {
					t.Fatalf("rows %q: column %d coded=%v, StringVector coded=%v", raw, c, v.Dict != nil, sv.Dict != nil)
				}
			}
		}
	})
}
