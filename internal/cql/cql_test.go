package cql

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/window"
)

func TestParseMinimal(t *testing.T) {
	q, err := Parse("SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s QUALITY 1%")
	if err != nil {
		t.Fatal(err)
	}
	if q.AggName != "sum" || q.Source != "sensor" {
		t.Fatalf("parsed: %+v", q)
	}
	if q.Spec.Size != 10*stream.Second || q.Spec.Slide != stream.Second {
		t.Fatalf("spec: %+v", q.Spec)
	}
	if q.Quality != 0.01 {
		t.Fatalf("quality: %v", q.Quality)
	}
	if q.GroupBy {
		t.Fatal("unexpected group by")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse("select p95(value) from cdr group by key window 30s slide 5s quality 0.5%")
	if err != nil {
		t.Fatal(err)
	}
	if !q.GroupBy || q.AggName != "p95" || q.Quality != 0.005 {
		t.Fatalf("parsed: %+v", q)
	}
}

func TestParseAggregateWithoutParens(t *testing.T) {
	q, err := Parse("SELECT median FROM stock WINDOW 1m SLIDE 10s QUALITY 2%")
	if err != nil {
		t.Fatal(err)
	}
	if q.AggName != "median" || q.Spec.Size != stream.Minute {
		t.Fatalf("parsed: %+v", q)
	}
}

func TestParseHandlerSpecs(t *testing.T) {
	cases := map[string]HandlerSpec{
		"HANDLER none":          {Kind: "none"},
		"HANDLER maxslack":      {Kind: "maxslack"},
		"HANDLER punctuated":    {Kind: "punctuated"},
		"HANDLER kslack(2s)":    {Kind: "kslack", K: 2 * stream.Second},
		"HANDLER kslack(500ms)": {Kind: "kslack", K: 500},
		"HANDLER wm(95%)":       {Kind: "wm", P: 0.95},
		"HANDLER wm(0.99)":      {Kind: "wm", P: 0.99},
	}
	for suffix, want := range cases {
		q, err := Parse("SELECT sum FROM sensor WINDOW 10s SLIDE 1s " + suffix)
		if err != nil {
			t.Errorf("%s: %v", suffix, err)
			continue
		}
		if q.Handler != want {
			t.Errorf("%s: got %+v, want %+v", suffix, q.Handler, want)
		}
		if q.Quality != 0 {
			t.Errorf("%s: quality set unexpectedly", suffix)
		}
	}
}

func TestParseTraceSource(t *testing.T) {
	q, err := Parse(`SELECT avg FROM trace('data/s.csv') WINDOW 10s SLIDE 1s QUALITY 1%`)
	if err != nil {
		t.Fatal(err)
	}
	if q.TraceFile != "data/s.csv" || q.Source != "" {
		t.Fatalf("parsed: %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT bogus FROM sensor WINDOW 10s SLIDE 1s QUALITY 1%",
		"SELECT sum FROM sensor SLIDE 1s QUALITY 1%",                           // missing WINDOW
		"SELECT sum FROM sensor WINDOW 1s SLIDE 10s QUALITY 1%",                // slide > size
		"SELECT sum FROM sensor WINDOW 10s SLIDE 1s",                           // no QUALITY/HANDLER
		"SELECT sum FROM sensor WINDOW 10s SLIDE 1s QUALITY 150%",              // out of range
		"SELECT sum FROM sensor WINDOW 10s SLIDE 1s QUALITY 1% extra",          // trailing
		"SELECT sum FROM sensor WINDOW 10s SLIDE 1s HANDLER bogus",             // unknown handler
		"SELECT sum FROM sensor WINDOW 10s SLIDE 1s HANDLER kslack",            // missing arg
		"SELECT sum FROM trace('x WINDOW 10s SLIDE 1s QUALITY 1%",              // unterminated string
		"SELECT sum FROM sensor WINDOW zz SLIDE 1s QUALITY 1%",                 // bad duration
		"SELECT sum(value FROM sensor WINDOW 10s SLIDE 1s QUALITY 1%",          // unclosed parens
		"SELECT sum FROM sensor GROUP BY value WINDOW 10s SLIDE 1s QUALITY 1%", // group by non-key
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	// Control characters in a quoted path are refused where they stand (the
	// first is FuzzParse's find: a newline that survived into the canonical form).
	for in, at := range map[string]string{
		"SELECT Avg(vAlue)FROM trACe('\n')WINDOW 10 SLIDE 1 HANDLER kslACk(0)":     "at 29",
		"SELECT sum FROM trace(\"a\tb\") WINDOW 10s SLIDE 1s QUALITY 1%":           "at 24",
		"SELECT sum FROM trace('a\x7f') WINDOW 10s SLIDE 1s QUALITY 1%":            "at 24",
		"SELECT sum FROM trace('\x00') WINDOW 10s SLIDE 1s QUALITY 1%":             "at 23",
		"SELECT sum FROM trace('ok.csv\r') WINDOW 10s SLIDE 1s HANDLER kslack(1s)": "at 29",
	} {
		_, err := Parse(in)
		if err == nil || !strings.Contains(err.Error(), "control character") || !strings.HasSuffix(err.Error(), at) {
			t.Errorf("Parse(%q) = %v; want a control-character error %s", in, err, at)
		}
	}
}

func TestQueryStringRoundTrips(t *testing.T) {
	inputs := []string{
		"SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s QUALITY 1%",
		"SELECT count(value) FROM cdr GROUP BY key WINDOW 30s SLIDE 5s QUALITY 0.5%",
		"SELECT avg(value) FROM stock WINDOW 1m SLIDE 10s HANDLER kslack(2s)",
		"SELECT max(value) FROM bursty WINDOW 10s SLIDE 1s HANDLER wm(95%)",
	}
	for _, in := range inputs {
		q, err := Parse(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		again, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", q.String(), err)
		}
		if again.String() != q.String() {
			t.Fatalf("round trip drifted: %q vs %q", q.String(), again.String())
		}
	}
}

func TestBuildHandlerKinds(t *testing.T) {
	for _, in := range []string{
		"SELECT sum FROM sensor WINDOW 10s SLIDE 1s QUALITY 1%",
		"SELECT sum FROM sensor WINDOW 10s SLIDE 1s HANDLER none",
		"SELECT sum FROM sensor WINDOW 10s SLIDE 1s HANDLER maxslack",
		"SELECT sum FROM sensor WINDOW 10s SLIDE 1s HANDLER punctuated",
		"SELECT sum FROM sensor WINDOW 10s SLIDE 1s HANDLER kslack(1s)",
		"SELECT sum FROM sensor WINDOW 10s SLIDE 1s HANDLER wm(90%)",
	} {
		q, err := Parse(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		h, err := q.BuildHandler()
		if err != nil || h == nil {
			t.Fatalf("%s: handler %v err %v", in, h, err)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	q, err := Parse("SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s QUALITY 2%")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := q.RunTraced(20000, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) == 0 {
		t.Fatal("no results")
	}
	quality := rep.Quality(q.Spec, q.Agg, metrics.CompareOpts{
		Theta: q.Quality, SkipWarmup: 10, SkipEmptyOracle: true,
	})
	if quality.MeanRelErr > q.Quality {
		t.Fatalf("declared quality violated: %v", quality)
	}
}

func TestRunGroupedEndToEnd(t *testing.T) {
	q, err := Parse("SELECT count FROM cdr GROUP BY key WINDOW 10s SLIDE 10s QUALITY 5%")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := q.RunTraced(10000, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Keyed) == 0 {
		t.Fatal("grouped query produced no keyed results")
	}
}

func TestRunPunctuatedIsExact(t *testing.T) {
	q, err := Parse("SELECT sum FROM sensor WINDOW 10s SLIDE 1s HANDLER punctuated")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := q.RunTraced(10000, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	quality := rep.Quality(q.Spec, q.Agg, metrics.CompareOpts{SkipEmptyOracle: true})
	if quality.MaxRelErr != 0 {
		t.Fatalf("punctuated query not exact: %v", quality)
	}
}

func TestRunUnknownSource(t *testing.T) {
	q, err := Parse("SELECT sum FROM nosuch WINDOW 10s SLIDE 1s QUALITY 1%")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.RunTraced(100, 1, nil); err == nil {
		t.Fatal("unknown source accepted at run time")
	}
}

func TestRunTraceMissingFile(t *testing.T) {
	q, err := Parse(`SELECT sum FROM trace('/nonexistent/x.csv') WINDOW 10s SLIDE 1s QUALITY 1%`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.RunTraced(100, 1, nil); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestWindowFactoryWiring(t *testing.T) {
	q, err := Parse("SELECT distinct FROM sensor WINDOW 5s SLIDE 5s QUALITY 10%")
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg.New() == nil {
		t.Fatal("factory not wired")
	}
	var _ window.Factory = q.Agg
	if !strings.Contains(q.String(), "distinct") {
		t.Fatalf("String = %q", q.String())
	}
}

type mapCatalog map[string]bool

func (m mapCatalog) HasSource(name string) bool { return m[name] }

func TestBindSource(t *testing.T) {
	cat := mapCatalog{"sensors": true}
	q, err := Parse(`SELECT sum FROM sensors WINDOW 10s SLIDE 1s QUALITY 1%`)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.BindSource(cat); err != nil {
		t.Fatalf("registered source rejected: %v", err)
	}
	q2, err := Parse(`SELECT sum FROM nosuch WINDOW 10s SLIDE 1s QUALITY 1%`)
	if err != nil {
		t.Fatal(err)
	}
	if err := q2.BindSource(cat); err == nil {
		t.Fatal("unregistered source bound")
	}
	q3, err := Parse(`SELECT sum FROM trace('x.csv') WINDOW 10s SLIDE 1s QUALITY 1%`)
	if err != nil {
		t.Fatal(err)
	}
	if err := q3.BindSource(cat); err == nil {
		t.Fatal("trace source bound to live registry")
	}
}
