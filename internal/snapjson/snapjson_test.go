package snapjson

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

type inner struct {
	V    float64   `json:"v"`
	Vals []float64 `json:"vals,omitempty"`
}

type state struct {
	Name    string           `json:"name,omitempty"`
	N       int64            `json:"n"`
	Big     uint64           `json:"big"`
	On      bool             `json:"on"`
	Ptr     *inner           `json:"ptr,omitempty"`
	Nil     *inner           `json:"nil,omitempty"`
	Items   []inner          `json:"items"`
	Pair    [2]float64       `json:"pair"`
	Counts  map[string]int64 `json:"counts,omitempty"`
	ByName  map[string]inner `json:"byName,omitempty"`
	Raw     json.RawMessage  `json:"raw,omitempty"`
	Skipped float64          `json:"-"`
	Untag   float32
	hidden  float64
	Nested  map[string][]inner `json:"nested,omitempty"`
}

func sample(special float64) state {
	return state{
		Name: "q", N: -7, Big: 1<<63 + 5, On: true,
		Ptr:    &inner{V: special, Vals: []float64{1, special, -0.0}},
		Items:  []inner{{V: 2.5}, {V: special}},
		Pair:   [2]float64{special, 3},
		Counts: map[string]int64{"emitted": 9},
		ByName: map[string]inner{"a": {V: special}},
		Raw:    json.RawMessage(`{"x":[1,2]}`),
		Untag:  1.5,
		Nested: map[string][]inner{"k": {{V: special}}},
	}
}

// bitsEqual is reflect.DeepEqual with floats compared bit for bit, so that a
// NaN equals exactly the same NaN.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if a.Type().Field(i).IsExported() && !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if w := b.MapIndex(it.Key()); !w.IsValid() || !bitsEqual(it.Value(), w) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// TestRoundTripsNonFinite: every non-finite float comes back with its bits —
// NaN payloads included — and everything around it as encoding/json would
// have restored it.
func TestRoundTripsNonFinite(t *testing.T) {
	for _, special := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Inf(1) - math.Inf(1), math.Float64frombits(0x7ff0000000000abc)} {
		in := sample(special)
		data, err := Marshal(in)
		if err != nil {
			t.Fatalf("%v: %v", special, err)
		}
		var out state
		if err := Unmarshal(data, &out); err != nil {
			t.Fatalf("%v: %v\n%s", special, err, data)
		}
		if !bitsEqual(reflect.ValueOf(in), reflect.ValueOf(out)) {
			t.Fatalf("%v: round trip\n got %+v\nwant %+v\n%s", special, out, in, data)
		}
		if out.Skipped != 0 || strings.Contains(string(data), "Skipped") || strings.Contains(string(data), `"nil"`) {
			t.Fatalf("%v: json:\"-\" or omitempty not honoured: %s", special, data)
		}
	}
}

// TestFinitePathIsEncodingJSON: without non-finite floats the bytes are
// encoding/json's, and so is what is read back — including what a snapshot
// written before this package existed holds.
func TestFinitePathIsEncodingJSON(t *testing.T) {
	in := sample(4.25)
	want, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Marshal(in)
	if err != nil || string(got) != string(want) {
		t.Fatalf("Marshal = %s, %v; encoding/json writes %s", got, err, want)
	}
	var out state
	if err := Unmarshal(want, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

// TestRejectsStringsThatAreNotFloats: only the three spellings stand for a
// number, and a malformed document is an error, not a partial value.
func TestRejectsStringsThatAreNotFloats(t *testing.T) {
	for _, doc := range []string{
		`{"n":1,"ptr":{"v":"inf"}}`,
		`{"n":1,"ptr":{"v":"NaN(0x3ff0000000000000)"}}`,
		`{"n":"1"}`,
		`{"n":1,"ptr":{"v":"+Inf"}`,
	} {
		var out state
		if err := Unmarshal([]byte(doc), &out); err == nil {
			t.Errorf("%s: accepted as %+v", doc, out)
		}
	}
}
