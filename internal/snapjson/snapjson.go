// Package snapjson is encoding/json for state that may hold NaN or ±Inf.
// JSON has no such numbers, and encoding/json refuses to write them, yet a
// window over values that are infinite, or that overflow, holds them — and a
// snapshot of it must round-trip them bit for bit, as the journal does.
//
// A value without non-finite floats is written by encoding/json, byte for
// byte as before, and read by it; that path costs nothing extra. A value
// with some is written through a generic tree in which each non-finite float
// is a JSON string — "+Inf", "-Inf", or "NaN" for math.NaN's bits and
// "NaN(0x…)" with the bits of any other NaN, such as the one Inf − Inf makes —
// and read back by a decoder that walks the target type. Both honour the json
// struct tags the state types use: a field's name, omitempty and "-". (An
// object's keys then come in sorted order; the reader does not care.)
package snapjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// Marshal encodes v like json.Marshal, with any non-finite float as a string.
func Marshal(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	var unsupported *json.UnsupportedValueError
	if errors.As(err, &unsupported) {
		return json.Marshal(tree(reflect.ValueOf(v)))
	}
	return data, err
}

// Unmarshal decodes what Marshal wrote into the value v points to.
func Unmarshal(data []byte, v any) error {
	err := json.Unmarshal(data, v)
	var mistyped *json.UnmarshalTypeError
	if !errors.As(err, &mistyped) {
		return err
	}
	// A string where a number belongs: decode the generic tree and fill v
	// from it, afresh.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber() // int64s and uint64s past 2^53 stay exact
	var t any
	if err := dec.Decode(&t); err != nil {
		return err
	}
	rv := reflect.ValueOf(v).Elem()
	rv.SetZero()
	return fill(rv, t)
}

var rawType = reflect.TypeFor[json.RawMessage]()

// fields calls fn for each field of struct type t that encoding/json encodes,
// under the name it encodes it by.
func fields(t reflect.Type, fn func(i int, name string, omitEmpty bool)) {
	for i := range t.NumField() {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" && opts == "" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		fn(i, name, strings.Contains(","+opts+",", ",omitempty,"))
	}
}

// tree is v as json.Marshal would see it, with non-finite floats as strings.
func tree(v reflect.Value) any {
	if v.Type() == rawType {
		return json.RawMessage(v.Bytes())
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return tree(v.Elem())
	case reflect.Struct:
		m := map[string]any{}
		fields(v.Type(), func(i int, name string, omitEmpty bool) {
			if f := v.Field(i); !omitEmpty || !empty(f) {
				m[name] = tree(f)
			}
		})
		return m
	case reflect.Slice:
		if v.IsNil() {
			return nil
		}
		fallthrough
	case reflect.Array:
		a := make([]any, v.Len())
		for i := range a {
			a[i] = tree(v.Index(i))
		}
		return a
	case reflect.Map:
		if v.IsNil() {
			return nil
		}
		m := make(map[string]any, v.Len())
		for it := v.MapRange(); it.Next(); {
			m[fmt.Sprint(it.Key())] = tree(it.Value())
		}
		return m
	case reflect.Float32, reflect.Float64:
		switch f := v.Float(); {
		case math.IsNaN(f):
			if bits := math.Float64bits(f); bits != math.Float64bits(math.NaN()) {
				return fmt.Sprintf("NaN(%#016x)", bits)
			}
			return "NaN"
		case math.IsInf(f, 1):
			return "+Inf"
		case math.IsInf(f, -1):
			return "-Inf"
		}
	}
	return v.Interface()
}

// empty is omitempty's notion of empty.
func empty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Struct:
		return false
	}
	return v.IsZero()
}

// fill stores the decoded tree t into v, which holds its type's zero value.
func fill(v reflect.Value, t any) error {
	if v.Type() == rawType {
		b, err := json.Marshal(t)
		v.SetBytes(b)
		return err
	}
	if t == nil {
		return nil // null: nothing to set
	}
	mistyped := func() error { return fmt.Errorf("snapjson: cannot store %T in %s", t, v.Type()) }
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return fill(v.Elem(), t)
	case reflect.Struct:
		m, ok := t.(map[string]any)
		if !ok {
			return mistyped()
		}
		var err error
		fields(v.Type(), func(i int, name string, _ bool) {
			if x, ok := m[name]; ok && err == nil {
				err = fill(v.Field(i), x)
			}
		})
		return err
	case reflect.Slice, reflect.Array:
		a, ok := t.([]any)
		if !ok {
			return mistyped()
		}
		if v.Kind() == reflect.Slice {
			v.Set(reflect.MakeSlice(v.Type(), len(a), len(a)))
		}
		for i := range min(len(a), v.Len()) {
			if err := fill(v.Index(i), a[i]); err != nil {
				return err
			}
		}
		return nil
	case reflect.Map:
		m, ok := t.(map[string]any)
		if !ok || v.Type().Key().Kind() != reflect.String {
			return mistyped()
		}
		v.Set(reflect.MakeMapWithSize(v.Type(), len(m)))
		for k, x := range m {
			e := reflect.New(v.Type().Elem()).Elem()
			if err := fill(e, x); err != nil {
				return err
			}
			v.SetMapIndex(reflect.ValueOf(k).Convert(v.Type().Key()), e)
		}
		return nil
	case reflect.Float32, reflect.Float64:
		var f float64
		var err error
		switch x := t.(type) {
		case json.Number:
			f, err = strconv.ParseFloat(string(x), v.Type().Bits())
		case string:
			switch bits, isNaN := strings.CutPrefix(x, "NaN("); {
			case x == "NaN":
				f = math.NaN()
			case x == "+Inf":
				f = math.Inf(1)
			case x == "-Inf":
				f = math.Inf(-1)
			case isNaN && strings.HasSuffix(bits, ")"):
				var b uint64
				b, err = strconv.ParseUint(strings.TrimSuffix(bits, ")"), 0, 64)
				if f = math.Float64frombits(b); err == nil && !math.IsNaN(f) {
					return mistyped()
				}
			default:
				return mistyped()
			}
		default:
			return mistyped()
		}
		v.SetFloat(f)
		return err
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, ok := t.(json.Number)
		if !ok {
			return mistyped()
		}
		n, err := strconv.ParseInt(string(x), 10, v.Type().Bits())
		v.SetInt(n)
		return err
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, ok := t.(json.Number)
		if !ok {
			return mistyped()
		}
		n, err := strconv.ParseUint(string(x), 10, v.Type().Bits())
		v.SetUint(n)
		return err
	case reflect.Bool:
		b, ok := t.(bool)
		if !ok {
			return mistyped()
		}
		v.SetBool(b)
		return nil
	case reflect.String:
		s, ok := t.(string)
		if !ok {
			return mistyped()
		}
		v.SetString(s)
		return nil
	}
	return mistyped()
}
