package obs

import (
	"bufio"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestExpositionGolden pins the exact text rendered for a small registry:
// family ordering, HELP/TYPE lines, label rendering, histogram triples.
// A diff here means every dashboard built on these names breaks — change
// the golden only with a deliberate naming-convention change.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("aq_tuples_in_total", "Tuples accepted into the pipeline.", L("query", "q1")).Add(42)
	r.Counter("aq_tuples_in_total", "Tuples accepted into the pipeline.", L("query", "q2")).Add(7)
	r.Gauge("aq_buffer_k_ms", "Current slack K in stream-time ms.", L("query", "q1")).Set(250)
	h := r.Histogram("aq_emit_latency_ms", "Result emission latency.", []float64{10, 100}, L("query", "q1"))
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	r.GaugeFunc("aq_quality_realized_err", "Realized relative error EWMA.",
		func() float64 { return 0.0042 }, L("query", "q1"))

	const want = `# HELP aq_buffer_k_ms Current slack K in stream-time ms.
# TYPE aq_buffer_k_ms gauge
aq_buffer_k_ms{query="q1"} 250
# HELP aq_emit_latency_ms Result emission latency.
# TYPE aq_emit_latency_ms histogram
aq_emit_latency_ms_bucket{query="q1",le="10"} 1
aq_emit_latency_ms_bucket{query="q1",le="100"} 2
aq_emit_latency_ms_bucket{query="q1",le="+Inf"} 3
aq_emit_latency_ms_sum{query="q1"} 5055
aq_emit_latency_ms_count{query="q1"} 3
# HELP aq_quality_realized_err Realized relative error EWMA.
# TYPE aq_quality_realized_err gauge
aq_quality_realized_err{query="q1"} 0.0042
# HELP aq_tuples_in_total Tuples accepted into the pipeline.
# TYPE aq_tuples_in_total counter
aq_tuples_in_total{query="q1"} 42
aq_tuples_in_total{query="q2"} 7
`
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", out.String(), want)
	}
	// Determinism: a second render is byte-identical.
	var again strings.Builder
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out.String() {
		t.Fatal("exposition is not deterministic across renders")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("aq_esc_total", "", L("query", "a\"b\\c\nd")).Inc()
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	want := `aq_esc_total{query="a\"b\\c\nd"} 1` + "\n"
	if !strings.Contains(out.String(), want) {
		t.Fatalf("escaped series missing; got:\n%s", out.String())
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("aq_hits_total", "Hits.").Add(3)
	RegisterRuntimeMetrics(r)

	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, m := range []string{"aq_hits_total 3", "aq_go_goroutines", "aq_go_heap_alloc_bytes",
		"aq_go_gc_cycles_total", "aq_process_uptime_seconds"} {
		if !strings.Contains(body, m) {
			t.Fatalf("body missing %q:\n%s", m, body)
		}
	}
	checkParseable(t, strings.NewReader(body))
}

// checkParseable is a minimal Prometheus text-format parser: every
// non-comment line must be `name{labels} value` with a float value, and
// every series must be preceded by a TYPE line for its family.
func checkParseable(t *testing.T, r io.Reader) {
	t.Helper()
	typed := make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				typed[fields[2]] = fields[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable line %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		if val != "NaN" && val != "+Inf" && val != "-Inf" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced label braces in %q", line)
			}
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(name, suffix); fam != name && typed[fam] == "histogram" {
				base = fam
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("series %q has no TYPE line", name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestExpositionGoldenRescrape pins the text of two scrapes with registry
// changes between them: a histogram whose labels and help need escaping, a
// family added, and a series forgotten and registered again, which leaves
// the family's series count unchanged — the second scrape must show the new
// series, not the ordering the first one kept.
func TestExpositionGoldenRescrape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("aq_esc_ms", "Escapes: back\\slash and\nnewline.", []float64{0.5, 1e6},
		L("query", "a\"b\\c\nd"), L("stage", "x"))
	h.Observe(0.25)
	h.Observe(2e6)
	r.Counter("aq_re_total", "", L("query", "q2")).Add(2)
	r.Counter("aq_re_total", "", L("query", "q1")).Add(1)
	r.Counter("aq_re_total", "", L("query", "q3")).Add(3)

	const hist = `# HELP aq_esc_ms Escapes: back\\slash and\nnewline.
# TYPE aq_esc_ms histogram
aq_esc_ms_bucket{query="a\"b\\c\nd",stage="x",le="0.5"} 1
aq_esc_ms_bucket{query="a\"b\\c\nd",stage="x",le="1e+06"} 1
aq_esc_ms_bucket{query="a\"b\\c\nd",stage="x",le="+Inf"} 2
aq_esc_ms_sum{query="a\"b\\c\nd",stage="x"} 2.00000025e+06
aq_esc_ms_count{query="a\"b\\c\nd",stage="x"} 2
`
	scrape := func(want string) {
		t.Helper()
		var out strings.Builder
		if err := r.WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		if out.String() != want {
			t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", out.String(), want)
		}
	}
	scrape(hist + `# TYPE aq_re_total counter
aq_re_total{query="q1"} 1
aq_re_total{query="q2"} 2
aq_re_total{query="q3"} 3
`)

	r.Forget(L("query", "q2"))
	r.Counter("aq_re_total", "", L("query", "q2")).Add(5)
	r.Gauge("aq_new", "Added between scrapes.").Set(7)
	scrape(hist + `# HELP aq_new Added between scrapes.
# TYPE aq_new gauge
aq_new 7
# TYPE aq_re_total counter
aq_re_total{query="q1"} 1
aq_re_total{query="q2"} 5
aq_re_total{query="q3"} 3
`)
}
