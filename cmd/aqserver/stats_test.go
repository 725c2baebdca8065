package main

// Tests for the fleet observability plane: /api/stats windowed history
// with per-query and per-tenant rollups, socket-level wire-latency
// provenance, SLO burn rates with degraded-readiness reasons, and the
// control-plane request instruments.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/window"
)

const statsCQL = `SELECT sum FROM sensors WINDOW 2s SLIDE 1s QUALITY 1%`

func getStats(t *testing.T, ts *httptest.Server, params string) (statsResponse, int) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/api/stats" + params)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr statsResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return sr, resp.StatusCode
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestStatsEndpoint drives the full path: a runtime query fed over TCP,
// the background sampler recording history, and /api/stats returning
// windowed points plus per-query and per-tenant rollups.
func TestStatsEndpoint(t *testing.T) {
	a, ts := apiTestApp(t, appConfig{obs: true, statsStep: 5 * time.Millisecond, sloBudget: 0.01})
	registerSourceAndQuery(t, ts, "sensors", "net-stats", statsCQL)
	// A tenantless runtime query rolls up under "default", with the
	// compiled-in queries: its tuples and its quota slot both.
	if resp, body := postJSON(t, ts, "/api/queries", registerRequest{Name: "net-anon", CQL: statsCQL}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register tenantless query: %d %s", resp.StatusCode, body)
	}

	items := sensorItems(3000, 7)
	c := &netstream.Client{Addr: a.netl.Addr().String(), Source: "sensors", Tenant: "t1"}
	defer c.Close()
	if err := c.Send(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	waitTuples(t, ts, "net-stats", int64(len(items)))
	waitTuples(t, ts, "net-anon", int64(len(items)))

	// The background sampler needs a couple of ticks past the ingest.
	deadline := time.Now().Add(10 * time.Second)
	var sr statsResponse
	for {
		var code int
		sr, code = getStats(t, ts, "?series=aq_stage_tuples_total&query=net-stats")
		if code != http.StatusOK {
			t.Fatalf("GET /api/stats = %d", code)
		}
		// Sorted by labels: stage disorder, source, window.
		if len(sr.Series) == 3 && len(sr.Series[1].Points) >= 2 &&
			sr.Series[1].Points[len(sr.Series[1].Points)-1].V == float64(len(items)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never converged: %+v", sr.Series)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := sr.Series[1]
	if s.Name != "aq_stage_tuples_total" || s.Kind != "counter" || s.Labels["query"] != "net-stats" || s.Labels["stage"] != "source" {
		t.Fatalf("series header wrong: %+v", s)
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].T < s.Points[i-1].T || s.Points[i].V < s.Points[i-1].V {
			t.Fatalf("points not monotone at %d: %+v", i, s.Points)
		}
	}

	roll, ok := sr.Queries["net-stats"]
	if !ok {
		t.Fatalf("query rollup missing: %+v", sr.Queries)
	}
	if roll.Tenant != "t1" || roll.TuplesIn != int64(len(items)) || roll.Windows == 0 {
		t.Fatalf("rollup wrong: %+v", roll)
	}
	tr, ok := sr.Tenants["t1"]
	if !ok || tr.Queries != 1 || tr.TuplesIn != int64(len(items)) || tr.FleetQueries != 1 {
		t.Fatalf("tenant rollup wrong: %+v (ok=%v)", tr, ok)
	}
	all, _ := getStats(t, ts, "")
	dflt, ok := all.Tenants["default"]
	if _, split := all.Tenants[""]; !ok || split || dflt.Queries != len(a.runners)+1 || dflt.TuplesIn != int64(len(items)) || dflt.FleetQueries != 1 {
		t.Fatalf("default tenant rollup wrong: %+v (ok=%v); tenants %+v", dflt, ok, all.Tenants)
	}

	// Downsampling: a coarse step returns at most one point per bucket.
	coarse, code := getStats(t, ts, "?series=aq_heartbeats_total&query=net-stats&step=1h")
	if code != http.StatusOK || len(coarse.Series) != 1 {
		t.Fatalf("coarse query failed: %d %+v", code, coarse.Series)
	}
	if n := len(coarse.Series[0].Points); n > 2 {
		t.Fatalf("step=1h returned %d points, want <= 2", n)
	}
	if coarse.StepMS != time.Hour.Milliseconds() {
		t.Fatalf("stepMs = %d, want %d", coarse.StepMS, time.Hour.Milliseconds())
	}

	// Histogram base-name selection returns the _count/_sum readings.
	hist, _ := getStats(t, ts, "?series=aq_emit_latency_ms&query=net-stats")
	var names []string
	for _, sh := range hist.Series {
		names = append(names, sh.Name)
	}
	if len(names) != 2 || names[0] != "aq_emit_latency_ms_count" || names[1] != "aq_emit_latency_ms_sum" {
		t.Fatalf("histogram readings = %v", names)
	}

	// Parameter validation.
	if _, code := getStats(t, ts, "?window=nonsense"); code != http.StatusBadRequest {
		t.Fatalf("bad window = %d, want 400", code)
	}
	if _, code := getStats(t, ts, "?step=-5s"); code != http.StatusBadRequest {
		t.Fatalf("bad step = %d, want 400", code)
	}
	// Tenant filter that matches nothing.
	empty, _ := getStats(t, ts, "?tenant=nosuch")
	if len(empty.Queries) != 0 || len(empty.Tenants) != 0 {
		t.Fatalf("tenant filter leaked: %+v %+v", empty.Queries, empty.Tenants)
	}
}

// TestWireLatencySocketLevel proves aq_wire_latency_ms measures true
// client-send→emission latency across a real TCP connection: a client
// whose provenance clock is stamped 5 s in the past must produce
// observations of at least 5000 ms.
func TestWireLatencySocketLevel(t *testing.T) {
	a, ts := apiTestApp(t, appConfig{obs: true, statsStep: time.Second})
	registerSourceAndQuery(t, ts, "sensors", "net-wire", statsCQL)

	const skewMS = 5000
	items := sensorItems(3000, 11)
	c := &netstream.Client{Addr: a.netl.Addr().String(), Source: "sensors", Tenant: "t1",
		Provenance: true, NowMS: func() int64 { return time.Now().UnixMilli() - skewMS }}
	defer c.Close()
	for i := 0; i < len(items); i += 500 {
		if err := c.Send(context.Background(), items[i:i+500]); err != nil {
			t.Fatal(err)
		}
	}
	waitTuples(t, ts, "net-wire", int64(len(items)))

	// Windows seal during feeding, so observations exist once tuples are
	// in and at least one window emitted.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := getStatus(t, ts, "net-wire"); st.Windows > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no windows emitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	body := scrapeMetrics(t, ts)
	count := metricValue(t, body, `aq_wire_latency_ms_count\{source="sensors"\} ([0-9.e+]+)`)
	sum := metricValue(t, body, `aq_wire_latency_ms_sum\{source="sensors"\} ([0-9.e+]+)`)
	if count == 0 {
		t.Fatalf("no wire-latency observations:\n%s", body)
	}
	if avg := sum / count; avg < skewMS {
		t.Fatalf("average wire latency %.1f ms, want >= %d (clock skewed into the past)", avg, skewMS)
	}

	// The provenance marks surfaced as wire-batch events in the flight
	// recorder.
	q, ok := a.srv.get("net-wire")
	if !ok {
		t.Fatal("runner missing")
	}
	wireEvents := 0
	for _, ev := range q.tracer.Recorder().Events() {
		if ev.Kind.String() == "wire-batch" {
			wireEvents++
			if ev.Win < 1 || ev.V < 1 {
				t.Fatalf("wire-batch event missing provenance: %+v", ev)
			}
		}
	}
	if wireEvents == 0 {
		t.Fatal("no wire-batch events recorded")
	}
}

func metricValue(t *testing.T, body, pattern string) float64 {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(body)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("parse %q: %v", m[1], err)
	}
	return v
}

// TestBurnRateAndDegradedReadiness drives the burn-rate math on a fake
// clock: a query spending every wall millisecond in violation against a
// 1% budget burns at 100x, which surfaces in the aq_slo_burn_rate
// gauges and as a degraded reason in /readyz — without flipping
// readiness.
func TestBurnRateAndDegradedReadiness(t *testing.T) {
	reg := obs.NewRegistry()
	now := time.UnixMilli(1_754_600_000_000)
	h := obs.NewHistory(reg, obs.HistoryOptions{
		Step: time.Second, Retention: 10 * time.Minute,
		Now: func() time.Time { return now },
	})
	var violMS float64
	reg.GaugeFunc("aq_time_in_violation_ms", "test stand-in for the watchdog series.",
		func() float64 { return violMS }, obs.L("query", "q1"))
	registerBurnRate(reg, h, 0.01, "q1")

	srv := newServer()
	srv.reg, srv.history, srv.sloBudget = reg, h, 0.01
	q := adaptiveRunner(t, runnerDef{name: "q1", theta: 0.01,
		spec: window.Spec{Size: 2 * stream.Second, Slide: stream.Second}, agg: window.Sum()})
	srv.add(q)

	// Before two samples exist the burn rate is unknown: no degraded
	// reason, gauges read 0.
	if _, _, ok := srv.burnRates("q1"); ok {
		t.Fatal("burn rate with no samples should not be ok")
	}
	if rd := srv.readiness(); len(rd.Degraded) != 0 {
		t.Fatalf("degraded before any samples: %+v", rd.Degraded)
	}

	h.Sample()
	now = now.Add(30 * time.Second)
	violMS = 30_000 // in violation for the entire elapsed 30 s
	h.Sample()

	fast, slow, ok := srv.burnRates("q1")
	if !ok {
		t.Fatal("burn rate not ok after two samples")
	}
	if fast < 99 || fast > 101 || slow < 99 || slow > 101 {
		t.Fatalf("burn rates = %.2f / %.2f, want ~100", fast, slow)
	}

	rd := srv.readiness()
	if !rd.Ready {
		t.Fatal("burn-rate degradation must not flip readiness")
	}
	reasons := rd.Degraded["q1"]
	found := false
	for _, r := range reasons {
		if strings.Contains(r, "burn rate") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no burn-rate reason in %v", reasons)
	}

	// The gauges expose the same verdict.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, w := range []string{"fast", "slow"} {
		re := regexp.MustCompile(`aq_slo_burn_rate\{query="q1",window="` + w + `"\} ([0-9.]+)`)
		m := re.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("aq_slo_burn_rate window=%s missing:\n%s", w, out)
		}
		if v, _ := strconv.ParseFloat(m[1], 64); v < 99 || v > 101 {
			t.Fatalf("gauge %s = %s, want ~100", w, m[1])
		}
	}
}

// TestAPIRequestInstrumentation checks the control-plane instruments:
// every /api/ request lands in aq_api_requests_total under its route
// pattern (not its raw path) and the latency histogram fills.
func TestAPIRequestInstrumentation(t *testing.T) {
	_, ts := apiTestApp(t, appConfig{obs: true})
	if resp, body := postJSON(t, ts, "/api/sources", map[string]string{"name": "s1"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create source: %d %s", resp.StatusCode, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/api/queries/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expected 404 for unknown query, got %d", resp.StatusCode)
	}
	if _, code := getStats(t, ts, ""); code != http.StatusOK {
		t.Fatalf("GET /api/stats = %d", code)
	}

	body := scrapeMetrics(t, ts)
	for _, want := range []string{
		`aq_api_requests_total{route="/api/sources",code="201"} 1`,
		`aq_api_requests_total{route="/api/queries/{name}",code="404"} 1`,
		`aq_api_requests_total{route="/api/stats",code="200"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in:\n%s", want, body)
		}
	}
	if metricValue(t, body, `aq_api_latency_ms_count\{route="/api/stats"\} ([0-9.e+]+)`) < 1 {
		t.Fatal("latency histogram did not fill")
	}
}
