package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve/wire"
)

// postRaw posts body verbatim as the gold tenant.
func postRaw(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("X-API-Key", "gold-key")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// queryExact runs q and returns its rows with every number as written on
// the wire (json.Number), so no cell passes through a float64.
func queryExact(t *testing.T, h http.Handler, q string) [][]any {
	t.Helper()
	body, err := json.Marshal(QueryRequest{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	rec := postRaw(t, h, "/v1/sql", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: got %d: %s", q, rec.Code, rec.Body.String())
	}
	dec := json.NewDecoder(rec.Body)
	dec.UseNumber()
	var resp QueryResponse
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return resp.Result.Rows
}

// eventsTable is a /v1/tables body for an events-shaped table holding rows.
func eventsTable(name, rows string) string {
	return fmt.Sprintf(`{"name":%q,"schema":[{"name":"k","type":"string"},{"name":"t","type":"int"},{"name":"v","type":"int"}],"rows":%s}`, name, rows)
}

// Exercise possible failure modes: every cell and row the events schema
// refuses is a 422 naming the row (and the column, when one cell is at
// fault) on both ingest endpoints, rows that are not rows at all are a
// 400, and a refused batch writes nothing.
func TestIngestRefusesBadCells(t *testing.T) {
	srv := streamServer(t, DefaultTenants())
	h := srv.Handler()
	cases := []struct {
		name, rows string
		code       int
		want       string
	}{
		{"a fraction", `[["a",1,1],["a",1.5,1]]`, http.StatusUnprocessableEntity, "row 1, column t"},
		{"an integral float past int64", `[["a",1e19,1]]`, http.StatusUnprocessableEntity, "row 0, column t"},
		{"an integer literal past int64", `[["a",1,9223372036854775808]]`, http.StatusUnprocessableEntity, "row 0, column v"},
		{"a number past float64", `[["a",1e400,1]]`, http.StatusUnprocessableEntity, "row 0, column t"},
		{"null", `[["a",null,1]]`, http.StatusUnprocessableEntity, "row 0, column t"},
		{"a string for an int", `[["a","1",1]]`, http.StatusUnprocessableEntity, "row 0, column t"},
		{"a number for a string", `[[1,1,1]]`, http.StatusUnprocessableEntity, "row 0, column k"},
		{"a boolean", `[["a",1,true]]`, http.StatusUnprocessableEntity, "row 0, column v"},
		{"an object", `[["a",{"t":1},1]]`, http.StatusUnprocessableEntity, "row 0, column t"},
		{"an array", `[["a",[1],1]]`, http.StatusUnprocessableEntity, "row 0, column t"},
		{"too few cells", `[["a",1,1],["a",1]]`, http.StatusUnprocessableEntity, "row 1: arity 2 != schema arity 3"},
		{"too many cells", `[["a",1,1,[2,{"x":"],"}],3]]`, http.StatusUnprocessableEntity, "row 0: arity > schema arity 3"},
		{"an empty row", `[[]]`, http.StatusUnprocessableEntity, "row 0: arity 0 != schema arity 3"},
		{"a null row", `[["a",1,1],null]`, http.StatusUnprocessableEntity, "row 1: arity 0 != schema arity 3"},
		{"rows an object", `{"k":"a"}`, http.StatusBadRequest, "array of arrays"},
		{"a row a number", `[["a",1,1],5]`, http.StatusBadRequest, "row 1 is not an array"},
		{"a bad escape", `[["a\x",1,1]]`, http.StatusBadRequest, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, post := range []struct{ path, body string }{
				{"/v1/stream", `{"table":"events","rows":` + c.rows + `}`},
				{"/v1/tables", eventsTable("refused", c.rows)},
			} {
				rec := postRaw(t, h, post.path, post.body)
				if rec.Code != c.code || !strings.Contains(rec.Body.String(), c.want) {
					t.Fatalf("%s: got %d %s, want %d naming %q", post.path, rec.Code, rec.Body.String(), c.code, c.want)
				}
			}
		})
	}
	if rows := queryExact(t, h, "SELECT COUNT(*) AS n FROM events"); fmt.Sprint(rows) != "[[0]]" {
		t.Fatalf("refused batches wrote rows: %v", rows)
	}
	if _, ok := srv.eng.Table("refused"); ok {
		t.Fatal("a refused table was registered")
	}
}

// TestIngestAcceptsIntegralNumbers: an int cell may be written as any
// JSON number of integral value, as before.
func TestIngestAcceptsIntegralNumbers(t *testing.T) {
	srv := streamServer(t, DefaultTenants())
	h := srv.Handler()
	const rows = `[ ["a", 3.0, 1e3], ["bé", -0, 2E1], ["a",-0.0,  12.5e1 ] ]`
	for _, post := range []struct{ path, body, table string }{
		{"/v1/stream", `{"table":"events","rows":` + rows + `}`, "events"},
		{"/v1/tables", eventsTable("cells", rows), "cells"},
	} {
		if rec := postRaw(t, h, post.path, post.body); rec.Code != http.StatusOK {
			t.Fatalf("%s: got %d: %s", post.path, rec.Code, rec.Body.String())
		}
		got := fmt.Sprint(queryExact(t, h, "SELECT k, t, v FROM "+post.table))
		if want := "[[a 3 1000] [bé 0 20] [a 0 125]]"; got != want {
			t.Fatalf("%s: read back %s, want %s", post.path, got, want)
		}
	}
}

// TestIngestIntCellsStayExact: Int cells past 2^53, where a float64
// rounds, arrive and read back exactly through /v1/stream and /v1/tables.
func TestIngestIntCellsStayExact(t *testing.T) {
	srv := streamServer(t, DefaultTenants())
	h := srv.Handler()
	bigs := []int64{1<<53 + 1, -(1<<53 + 1), 9007199254740993, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}
	var rows [][]any
	want := ""
	for i, v := range bigs {
		rows = append(rows, []any{fmt.Sprint("k", i), v, -v / 3})
		want += strconv.FormatInt(v, 10) + " " + strconv.FormatInt(-v/3, 10) + ";"
	}
	stream, err := json.Marshal(StreamRequest{Table: "events", Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	table, err := json.Marshal(TableRequest{Name: "bigs", Schema: []wire.Column{
		{Name: "k", Type: "string"}, {Name: "t", Type: "int"}, {Name: "v", Type: "int"}}, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	for _, post := range []struct {
		path  string
		body  []byte
		table string
	}{{"/v1/stream", stream, "events"}, {"/v1/tables", table, "bigs"}} {
		if rec := postRaw(t, h, post.path, string(post.body)); rec.Code != http.StatusOK {
			t.Fatalf("%s: got %d: %s", post.path, rec.Code, rec.Body.String())
		}
		got := ""
		for _, row := range queryExact(t, h, "SELECT t, v FROM "+post.table) {
			got += fmt.Sprint(row[0]) + " " + fmt.Sprint(row[1]) + ";"
		}
		if got != want {
			t.Fatalf("%s: read back\n%s\nwant\n%s", post.path, got, want)
		}
	}
}
