package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseTenants: no input makes ParseTenants panic, and an accepted
// set survives a round trip — marshal it, parse the bytes again (still
// accepted) and marshal again: the bytes are unchanged. The seed corpus
// is in testdata/fuzz/FuzzParseTenants.
func FuzzParseTenants(f *testing.F) {
	f.Add([]byte(`[{"name":"gold","api_key":"gk","priority":"interactive","weight":3}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := ParseTenants(data)
		if err != nil {
			return
		}
		first, err := json.Marshal(ts.List())
		if err != nil {
			t.Fatalf("%q: accepted set does not marshal: %v", data, err)
		}
		again, err := ParseTenants(first)
		if err != nil {
			t.Fatalf("%q: marshalled set %s refused: %v", data, first, err)
		}
		second, err := json.Marshal(again.List())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%q: round trip changed the set:\n%s\n%s", data, first, second)
		}
	})
}
