package cql

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary statements to the parser and checks two
// properties. First, no input panics — errors are the only rejection
// channel. Second, print/parse is a fixed point: any statement the
// parser accepts renders (Query.String) to a canonical form that parses
// back to the identical canonical form, so the printer never emits a
// statement the parser rejects or reads differently.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s QUALITY 1%",
		"SELECT count(value) FROM cdr GROUP BY key WINDOW 30s SLIDE 5s QUALITY 0.5%",
		"SELECT avg(value) FROM trace('stream.csv') WINDOW 1m SLIDE 10s HANDLER kslack(2s)",
		"SELECT p95(value) FROM bursty WINDOW 500ms SLIDE 250ms HANDLER maxslack",
		"SELECT median(value) FROM drift WINDOW 1m SLIDE 1s HANDLER wm(99%)",
		"SELECT min(value) FROM stock WINDOW 10s SLIDE 10s HANDLER none",
		"SELECT distinct(value) FROM simnet WINDOW 2s SLIDE 1s HANDLER punctuated",
		"select SUM(value) from sensor window 10s slide 1s quality 2%",
		"SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s",            // missing quality/handler
		"SELECT sum(value) FROM sensor WINDOW 1s SLIDE 10s QUALITY 1%", // slide > size
		"",
		"SELECT",
		"SELECT sum(value) FROM trace('a''b') WINDOW 1s SLIDE 1s QUALITY 1%",
		"SELECT Avg(vAlue)FROM trACe('\n')WINDOW 10 SLIDE 1 HANDLER kslACk(0)", // once accepted: a multi-line canonical form
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input) // must not panic, whatever the input
		if err != nil {
			return
		}
		canon := q.String()
		q2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form rejected:\n  input %q\n  canon %q\n  err   %v", input, canon, err)
		}
		if got := q2.String(); got != canon {
			t.Fatalf("print/parse not a fixed point:\n  input %q\n  canon %q\n  again %q", input, canon, got)
		}
		// The canonical form must round-trip the semantic fields too, not
		// just the text (Agg is a factory; compare by name).
		if q2.AggName != q.AggName || q2.Source != q.Source || q2.TraceFile != q.TraceFile ||
			q2.GroupBy != q.GroupBy || q2.Spec != q.Spec || q2.Quality != q.Quality || q2.Handler != q.Handler {
			t.Fatalf("semantics drifted across round trip:\n  %+v\nvs %+v", q, q2)
		}
		// Sanity: the printer always emits a single line.
		if strings.ContainsAny(canon, "\n\r") {
			t.Fatalf("canonical form is multi-line: %q", canon)
		}
	})
}
