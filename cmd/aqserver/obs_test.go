package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/window"
)

// instrumentedRunner builds a runner with obs wired, feeds it a segment
// and finishes it.
func instrumentedRunner(t *testing.T, reg *obs.Registry) *queryRunner {
	t.Helper()
	q := adaptiveRunner(t, runnerDef{name: "test-sum", theta: 0.02, reg: reg,
		spec: window.Spec{Size: 10 * stream.Second, Slide: stream.Second}, agg: window.Sum()})
	feedTuples(q, gen.Sensor(20000, 9).Arrivals())
	q.finish()
	return q
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newServer()
	srv.reg = obs.NewRegistry()
	obs.RegisterRuntimeMetrics(srv.reg)
	q := instrumentedRunner(t, srv.reg)
	srv.add(q)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// The live series must agree with the status JSON's totals. The latency
	// histogram follows the engine's rule: the windows the final flush
	// forced out are not observed (AggReport.Latency skips them too).
	st := q.status()
	preFlush := q.stage.Report().PreFlush
	if preFlush == 0 || int64(preFlush) >= st.Windows {
		t.Fatalf("%d of %d windows progress-emitted: the flush rule is untested", preFlush, st.Windows)
	}
	for _, want := range []string{
		fmt.Sprintf(`aq_stage_tuples_total{query="test-sum",stage="source"} %d`, st.TuplesIn),
		fmt.Sprintf(`aq_stage_tuples_total{query="test-sum",stage="window"} %d`, st.Windows),
		fmt.Sprintf(`aq_controller_adaptations_total{query="test-sum"} %d`, st.Adaptations),
		fmt.Sprintf(`aq_emit_latency_ms_count{query="test-sum"} %d`, preFlush),
		fmt.Sprintf(`aq_buffer_k_ms{query="test-sum"} %d`, st.K),
		`aq_query_health{query="test-sum",state="done"} 1`,
		`aq_query_health{query="test-sum",state="feeding"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Required families from the acceptance criteria: per-query buffer
	// size, emission-latency histogram, quality estimate, shed/retry
	// counters — plus runtime metrics.
	for _, fam := range []string{
		"aq_buffer_depth", "aq_emit_latency_ms_bucket", "aq_quality_est_err",
		"aq_quality_realized_err", "aq_quality_realized_err_adjusted", "aq_quality_theta",
		"aq_shed_tuples_total", "aq_source_retries_total", "aq_stage_panics_total",
		"aq_controller_pi_factor", "aq_latency_p95_ms",
		"aq_go_goroutines",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("metrics missing family %s", fam)
		}
	}
	if st.Adaptations == 0 {
		t.Error("runner never adapted; the controller series are untested")
	}

	// Spot-check exposition hygiene: every sample line has a TYPE'd family.
	var families, samples int
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families++
		} else if line != "" && !strings.HasPrefix(line, "#") {
			samples++
		}
	}
	if families == 0 || samples == 0 {
		t.Fatalf("implausible exposition: %d families, %d samples", families, samples)
	}
}

func TestPprofEndpoint(t *testing.T) {
	srv := newServer()
	srv.reg = obs.NewRegistry()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /debug/pprof/ = %d", resp.StatusCode)
	}
	// The CPU profile endpoint exists (not exercised — it blocks for the
	// profiling duration); the symbol endpoint answers immediately.
	resp, err = http.Get(ts.URL + "/debug/pprof/symbol")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /debug/pprof/symbol = %d", resp.StatusCode)
	}
}

// TestObsDisabled pins the default: without -obs neither /metrics nor
// pprof is served.
func TestObsDisabled(t *testing.T) {
	srv := newServer()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d without -obs, want 404", path, resp.StatusCode)
		}
	}
}
