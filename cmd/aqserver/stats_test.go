package main

// Tests for the fleet observability plane: /api/stats windowed history
// with per-query and per-tenant rollups, socket-level wire-latency
// provenance, SLO burn rates with degraded-readiness reasons, and the
// control-plane request instruments.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
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

// statsResponse is the JSON shape of /api/stats, which the endpoint once
// marshaled whole: the selected series histories plus per-query and
// per-tenant rollups of the live runners. appendStats writes the same bytes
// by hand; the tests decode into it.
type statsResponse struct {
	NowMS       int64                   `json:"nowMs"`
	StepMS      int64                   `json:"stepMs"`
	RetentionMS int64                   `json:"retentionMs"`
	Series      []obs.SeriesHistory     `json:"series"`
	Queries     map[string]queryRollup  `json:"queries"`
	Tenants     map[string]tenantRollup `json:"tenants"`
}

// TestStatsJSONMatchesEncodingJSON holds the /api/stats body, which
// appendStats writes by hand, to the bytes json.Marshal makes of a
// statsResponse built from History.Query and the same rollups — the shape
// the endpoint used to marshal. The registry holds, beside two fed runtime
// queries, label values JSON escapes, the float values whose JSON form is
// special, a counter past 2^53 and a histogram's _count/_sum readings; the
// requests are TestStatsEndpoint's and more, at a now the samples are in and
// at one an hour on, where every track has "points":null. A non-finite
// sample keeps the answer json.Marshal gave: a 500 with its error.
func TestStatsJSONMatchesEncodingJSON(t *testing.T) {
	a, ts := apiTestApp(t, appConfig{obs: true, statsStep: time.Hour, sloBudget: 0.01})
	registerSourceAndQuery(t, ts, "sensors", "net-stats", statsCQL)
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

	srv, reg := a.srv, a.srv.reg
	odd := "q\"\\<&>\u2028\xff"
	g := reg.Gauge("aq_json_gauge", "test", obs.L("query", odd), obs.L("zone", "<&>"))
	reg.Counter("aq_json_total", "test", obs.L("query", odd)).Add(1<<53 + 1)
	hist := reg.Histogram("aq_json_ms", "test", []float64{1}, obs.L("query", odd))
	for i := 0; i < 12; i++ {
		g.Set([]float64{0, math.Copysign(0, -1), 1e-7, 123456.789, 1e21}[i%5])
		hist.Observe(float64(i) + 0.5)
		srv.history.Sample()
		time.Sleep(time.Millisecond)
	}
	// The runners settle once the ingest has been processed.
	all, deadline := statsRequest{}, time.Now().Add(10*time.Second)
	for prevQ, prevT := srv.rollups(all); ; {
		time.Sleep(20 * time.Millisecond)
		q, tn := srv.rollups(all)
		if reflect.DeepEqual(q, prevQ) && reflect.DeepEqual(tn, prevT) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollups still moving: %+v", q)
		}
		prevQ, prevT = q, tn
	}

	marshal := func(req statsRequest) ([]byte, error) {
		resp := statsResponse{
			NowMS:       req.now.UnixMilli(),
			StepMS:      srv.history.Step().Milliseconds(),
			RetentionMS: srv.history.Retention().Milliseconds(),
			Series:      srv.history.Query(req.hq),
		}
		if req.hq.StepMS > 0 {
			resp.StepMS = req.hq.StepMS
		}
		resp.Queries, resp.Tenants = srv.rollups(req)
		return json.Marshal(resp)
	}
	params := []string{
		"", "window=10s", "window=1ms", "step=1ms", "step=3ms&window=1h",
		"series=aq_stage_tuples_total&query=net-stats",
		"series=aq_heartbeats_total&query=net-stats&step=1h",
		"series=aq_emit_latency_ms&query=net-stats",
		"series=aq_json_ms,aq_json_gauge", "series=nosuch",
		"tenant=nosuch", "tenant=t1", "tenant=default", "query=net-anon&tenant=default",
		"query=" + url.QueryEscape(odd),
	}
	for _, p := range params {
		values, err := url.ParseQuery(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, now := range []time.Time{time.Now(), time.Now().Add(time.Hour)} {
			req, err := srv.parseStats(values, now)
			if err != nil {
				t.Fatalf("%q: %v", p, err)
			}
			want, err := marshal(req)
			if err != nil {
				t.Fatalf("%q: json.Marshal: %v", p, err)
			}
			got, err := srv.appendStats(nil, req)
			if err != nil {
				t.Fatalf("%q: appendStats: %v", p, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%q at %v:\nappendStats  %s\njson.Marshal %s", p, now, got, want)
			}
		}
	}

	// A NaN reading: the parent's answer was writeJSON's, a 500 carrying
	// json.Marshal's error.
	reg.GaugeFunc("aq_json_nan", "test", math.NaN, obs.L("query", "nan"))
	srv.history.Sample()
	nan, _ := srv.parseStats(url.Values{}, time.Now())
	_, wantErr := marshal(nan)
	resp, err := ts.Client().Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if wantErr == nil || resp.StatusCode != http.StatusInternalServerError ||
		string(body) != wantErr.Error()+"\n" || !strings.HasPrefix(string(body), "json: unsupported value") {
		t.Fatalf("NaN sample: %d %q, json.Marshal error %v", resp.StatusCode, body, wantErr)
	}
	if _, code := getStats(t, ts, "?query=net-stats"); code != http.StatusOK {
		t.Fatalf("a selection without the NaN = %d", code)
	}
}

// TestRollupJSONMatchesEncodingJSON covers the rollup fields the served
// runners leave at zero: burn rates (omitted at zero), a fleet-query count,
// escaped names and a non-finite θ.
func TestRollupJSONMatchesEncodingJSON(t *testing.T) {
	for _, r := range []queryRollup{
		{},
		{Tenant: "<t>", Health: "degraded", Theta: 1e-7, K: -3, RealizedErr: 123456.789,
			TuplesIn: 1 << 62, Windows: 9, Shed: 2, BurnFast: 1e21, BurnSlow: math.Copysign(0, -1)},
		{BurnSlow: 0.5},
		{Theta: math.Inf(1)},
		{BurnFast: math.NaN()},
	} {
		want, wantErr := json.Marshal(r)
		got, err := r.appendJSON([]byte("x"))
		if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%+v: appendJSON error %v, json.Marshal error %v", r, err, wantErr)
		}
		if err == nil && string(got) != "x:"+string(want) {
			t.Fatalf("%+v:\nappendJSON   %s\njson.Marshal :%s", r, got[1:], want)
		}
	}
	for _, r := range []tenantRollup{{}, {Queries: 3, TuplesIn: 1 << 62, Windows: 4, Shed: 5, FleetQueries: 2}} {
		want, _ := json.Marshal(r)
		if got := r.appendJSON([]byte("x")); string(got) != "x:"+string(want) {
			t.Fatalf("%+v:\nappendJSON   %s\njson.Marshal :%s", r, got[1:], want)
		}
	}
}

// TestRouteInstrumentsConcurrent sends requests through one instrumented
// route from several goroutines, each status code first seen concurrently:
// every request is counted once under its code and timed once.
func TestRouteInstrumentsConcurrent(t *testing.T) {
	srv := newServer()
	srv.reg = obs.NewRegistry()
	codes := []int{http.StatusOK, http.StatusNotFound, http.StatusInternalServerError}
	h := srv.instrumentRoute("/api/test", func(w http.ResponseWriter, r *http.Request) {
		code, _ := strconv.Atoi(r.URL.Query().Get("code"))
		w.WriteHeader(code)
	})
	const workers, each = 8, 60
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				path := "/api/test?code=" + strconv.Itoa(codes[(g+i)%len(codes)])
				h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
			}
		}()
	}
	wg.Wait()
	var out strings.Builder
	if err := srv.reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, code := range codes {
		want := `aq_api_requests_total{route="/api/test",code="` + strconv.Itoa(code) + `"} ` + strconv.Itoa(workers*each/len(codes))
		if !strings.Contains(out.String(), want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out.String())
		}
	}
	if !strings.Contains(out.String(), `aq_api_latency_ms_count{route="/api/test"} `+strconv.Itoa(workers*each)+"\n") {
		t.Fatalf("latency count wrong:\n%s", out.String())
	}
}
