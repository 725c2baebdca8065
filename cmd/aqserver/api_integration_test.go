package main

// Socket-level integration tests for the network control plane: a real
// aqserver app on ephemeral ports, queries registered over HTTP,
// tuples streamed over TCP through internal/netstream, and the emitted
// windows compared byte-for-byte (oracle.SameOutput) against the same
// plan run in-process by the cq engine.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/cql"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/oracle"
	"repro/internal/resilience"
	"repro/internal/stream"
)

// apiTestApp boots an app with the control plane on (no compiled-in
// feeds running) plus an httptest server and a TCP ingest listener on
// ephemeral ports. Its cleanup drains the app, closes the server and then
// holds the test to the goroutines it started with: whatever the app
// started must be gone within settleGoroutines' grace.
func apiTestApp(t *testing.T, cfg appConfig) (*app, *httptest.Server) {
	t.Helper()
	base := runtime.NumGoroutine()
	cfg.apiOn = true
	if cfg.log == nil {
		cfg.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	a, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.startListener("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv.handler())
	t.Cleanup(func() {
		a.drain()
		ts.Close()
		settleGoroutines(t, base)
	})
	return a, ts
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

func doDelete(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func getStatus(t *testing.T, ts *httptest.Server, name string) (status, int) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/api/queries/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st status
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// registerSourceAndQuery creates the named source and registers a query
// over it, failing the test on any non-201.
func registerSourceAndQuery(t *testing.T, ts *httptest.Server, source, name, cqlText string) {
	t.Helper()
	if resp, body := postJSON(t, ts, "/api/sources", map[string]string{"name": source}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create source: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts, "/api/queries",
		registerRequest{Name: name, Tenant: "t1", CQL: cqlText}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register query: %d %s", resp.StatusCode, body)
	}
}

// waitTuples polls the query status until tuplesIn reaches want.
func waitTuples(t *testing.T, ts *httptest.Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, code := getStatus(t, ts, name)
		if code == http.StatusOK && st.TuplesIn >= want {
			if st.TuplesIn > want {
				t.Fatalf("query %s ingested %d tuples, want exactly %d", name, st.TuplesIn, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("query %s stuck at %d/%d tuples", name, st.TuplesIn, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sensorItems builds an arrival-ordered item stream from the sensor
// generator (Pareto delays: plenty of disorder for the handler to chew).
func sensorItems(n int, seed uint64) []stream.Item {
	tuples := gen.Sensor(n, seed).Arrivals()
	items := make([]stream.Item, len(tuples))
	for i, tp := range tuples {
		items[i] = stream.DataItem(tp)
	}
	return items
}

// runOracle executes the same CQL plan in-process over the same items
// with the cq engine — the ground truth the networked path must match
// byte for byte. A GROUP BY plan's keyed results are reported as the
// Results embedded in them, which is what its runner records.
func runOracle(t *testing.T, cqlText string, items []stream.Item) *cq.AggReport {
	t.Helper()
	stmt, err := cql.Parse(cqlText)
	if err != nil {
		t.Fatal(err)
	}
	h, err := stmt.BuildHandler()
	if err != nil {
		t.Fatal(err)
	}
	q := cq.New(stream.NewSliceSource(items)).Handle(h).Window(stmt.Spec, stmt.Agg)
	if stmt.GroupBy {
		q.GroupBy()
	}
	rep, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, kr := range rep.Keyed {
		rep.Results = append(rep.Results, kr.Result)
	}
	rep.Keyed = nil
	return rep
}

// runnerReport converts a finished runner's state into the AggReport
// shape oracle.SameOutput compares. Only valid after finish() on a
// non-grouped runner whose full result history fits the ring.
func runnerReport(t *testing.T, q *queryRunner) *cq.AggReport {
	t.Helper()
	results := q.recentResults(0)
	if len(results) == resultRing {
		t.Fatalf("result ring overflowed (%d results); shrink the plan so the comparison sees every window", resultRing)
	}
	rep := q.exec.Report()
	return &cq.AggReport{
		Results:  results,
		PreFlush: rep.PreFlush,
		Handler:  rep.Handler,
		Op:       rep.Op,
	}
}

// TestAPIRegisteredQueryMatchesInProcess is the end-to-end acceptance
// test: an HTTP-registered query fed over TCP — including one client
// reconnect across a full ingest-listener restart — emits windows
// byte-identical to the same plan run in-process, per oracle.SameOutput.
func TestAPIRegisteredQueryMatchesInProcess(t *testing.T) {
	const cqlText = `SELECT sum FROM sensors WINDOW 4s SLIDE 1s HANDLER kslack(500ms)`
	a, ts := apiTestApp(t, appConfig{batch: 8})
	registerSourceAndQuery(t, ts, "sensors", "net-sum", cqlText)

	items := sensorItems(4000, 42)
	half := len(items) / 2
	addr := a.netl.Addr().String()
	c := &netstream.Client{Addr: addr, Source: "sensors", Tenant: "t1",
		Retry: resilience.Retry{MaxAttempts: 20, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Seed: 1}}
	defer c.Close()
	for i := 0; i < half; i += 200 {
		if err := c.Send(context.Background(), items[i:i+200]); err != nil {
			t.Fatal(err)
		}
	}
	// The status poll proves the first half fully landed before the
	// restart, so the reconnect epoch below starts from a known boundary
	// and at-least-once delivery degenerates to exactly-once.
	waitTuples(t, ts, "net-sum", int64(half))

	// Kill and restart the ingest listener on the same address; close the
	// client so its next Send must re-dial and replay the hello.
	if err := a.netl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.startListener(addr); err != nil {
		t.Fatal(err)
	}
	for i := half; i < len(items); i += 200 {
		if err := c.Send(context.Background(), items[i:i+200]); err != nil {
			t.Fatal(err)
		}
	}
	waitTuples(t, ts, "net-sum", int64(len(items)))

	// Grab the runner before DELETE removes it from the routing table,
	// then stop it: the pump unwinds and finish() flushes open windows.
	q, ok := a.srv.get("net-sum")
	if !ok {
		t.Fatal("runner not found")
	}
	if resp := doDelete(t, ts, "/api/queries/net-sum"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}

	got := runnerReport(t, q)
	want := runOracle(t, cqlText, items)
	if err := oracle.SameOutput(got, want); err != nil {
		t.Fatalf("networked query diverged from in-process oracle: %v", err)
	}
	if len(want.Results) == 0 {
		t.Fatal("oracle emitted no windows; the comparison proved nothing")
	}
	if st := q.status(); st.Shed != 0 {
		t.Fatalf("unexpected sheds (%d) in a lossless test run", st.Shed)
	}
}

// TestAPIDropQueryMidStream deletes one of two queries sharing a source
// while tuples are still flowing: the survivor keeps ingesting to
// completion, the deleted query flushes and disappears from the API.
func TestAPIDropQueryMidStream(t *testing.T) {
	a, ts := apiTestApp(t, appConfig{batch: 8})
	const cqlText = `SELECT count FROM sensors WINDOW 2s SLIDE 1s HANDLER maxslack`
	registerSourceAndQuery(t, ts, "sensors", "keep", cqlText)
	if resp, body := postJSON(t, ts, "/api/queries",
		registerRequest{Name: "drop", Tenant: "t1", CQL: cqlText}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register drop query: %d %s", resp.StatusCode, body)
	}

	items := sensorItems(3000, 7)
	c := &netstream.Client{Addr: a.netl.Addr().String(), Source: "sensors"}
	defer c.Close()
	third := len(items) / 3
	if err := c.Send(context.Background(), items[:third]); err != nil {
		t.Fatal(err)
	}
	waitTuples(t, ts, "drop", int64(third))

	dropped, _ := a.srv.get("drop")
	if resp := doDelete(t, ts, "/api/queries/drop"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE mid-stream: %d", resp.StatusCode)
	}
	if dropped.healthState() != healthDone {
		t.Fatalf("dropped query health = %s, want done (windows flushed)", dropped.healthState())
	}
	if _, code := getStatus(t, ts, "drop"); code != http.StatusNotFound {
		t.Fatalf("GET deleted query = %d, want 404", code)
	}

	// The survivor is unaffected by its neighbour's departure.
	if err := c.Send(context.Background(), items[third:]); err != nil {
		t.Fatal(err)
	}
	waitTuples(t, ts, "keep", int64(len(items)))
	st, _ := getStatus(t, ts, "keep")
	if st.Windows == 0 {
		t.Fatal("survivor emitted no windows")
	}
	if st.Statement != cqlText || st.Tenant != "t1" {
		t.Fatalf("survivor status lost registration identity: %+v", st)
	}
}

// TestAPIQuotaAndValidation covers the admission-control 4xx surface:
// tenant query quota (429), duplicate names (409), unknown sources
// (404), bad CQL and bad names (400).
func TestAPIQuotaAndValidation(t *testing.T) {
	durDir := t.TempDir()
	_, ts := apiTestApp(t, appConfig{quotas: fleet.Quotas{MaxQueriesPerTenant: 1}, durableDir: durDir})
	const cqlText = `SELECT sum FROM s1 WINDOW 2s SLIDE 1s QUALITY 1%`
	registerSourceAndQuery(t, ts, "s1", "q1", cqlText)

	cases := []struct {
		name string
		req  registerRequest
		want int
	}{
		{"quota", registerRequest{Name: "q2", Tenant: "t1", CQL: cqlText}, http.StatusTooManyRequests},
		{"duplicate", registerRequest{Name: "q1", Tenant: "other", CQL: cqlText}, http.StatusConflict},
		{"unknown source", registerRequest{Name: "q3", Tenant: "other", CQL: `SELECT sum FROM nosuch WINDOW 2s SLIDE 1s QUALITY 1%`}, http.StatusNotFound},
		{"trace source", registerRequest{Name: "q4", Tenant: "other", CQL: `SELECT sum FROM trace('x.csv') WINDOW 2s SLIDE 1s QUALITY 1%`}, http.StatusBadRequest},
		{"bad cql", registerRequest{Name: "q5", Tenant: "other", CQL: `SELECT nonsense`}, http.StatusBadRequest},
		{"bad name", registerRequest{Name: "no spaces", Tenant: "other", CQL: cqlText}, http.StatusBadRequest},
		{"grouped with QUALITY", registerRequest{Name: "q6", Tenant: "other", CQL: `SELECT sum FROM s1 GROUP BY key WINDOW 2s SLIDE 1s QUALITY 1%`}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts, "/api/queries", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}

	// Rejected registrations must leave no durable residue (the
	// admission precheck runs before the runner — and its durable log —
	// is built); the admitted q1 has a state directory.
	if _, err := os.Stat(filepath.Join(durDir, "q1")); err != nil {
		t.Errorf("admitted query has no durable state: %v", err)
	}
	for _, tc := range cases {
		if _, err := os.Stat(filepath.Join(durDir, tc.req.Name)); err == nil && tc.req.Name != "q1" {
			t.Errorf("rejected registration %q left durable state", tc.req.Name)
		}
	}

	// Deleting q1 frees the tenant's quota slot.
	if resp := doDelete(t, ts, "/api/queries/q1"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	if resp, body := postJSON(t, ts, "/api/queries",
		registerRequest{Name: "q2", Tenant: "t1", CQL: cqlText}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register after delete: %d %s", resp.StatusCode, body)
	}
}

// TestAPIIngestQuotaShedsIntoQueryAccounting drives a source past its
// rate quota and checks the dropped tuples are charged to the attached
// query's shed count (the AggReport.Shed semantics of the issue).
func TestAPIIngestQuotaShedsIntoQueryAccounting(t *testing.T) {
	a, ts := apiTestApp(t, appConfig{quotas: fleet.Quotas{MaxIngestPerSec: 1000}})
	registerSourceAndQuery(t, ts, "s1", "q1",
		`SELECT sum FROM s1 WINDOW 2s SLIDE 1s HANDLER none`)

	// 3000 tuples against a 1000-token bucket: at least 1000 admitted
	// (the initial burst), a large remainder shed at the door.
	items := sensorItems(3000, 3)
	c := &netstream.Client{Addr: a.netl.Addr().String(), Source: "s1"}
	defer c.Close()
	if err := c.Send(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := getStatus(t, ts, "q1")
		src := a.fleet.Source("s1")
		if src.RateShed() > 0 && st.TuplesIn+st.Shed >= int64(len(items)) && st.TuplesIn == src.Tuples() {
			if st.Shed < src.RateShed() {
				t.Fatalf("query shed %d does not include the source's %d rate-shed tuples", st.Shed, src.RateShed())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quota accounting never converged: status=%+v rateShed=%d", st, src.RateShed())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRuntimeQueryMetricLabelParity: a runtime-registered query and a
// compiled-in one, its feed running, export the same per-query label sets:
// the engine's whole set (cq.Telemetry — stage counters, heartbeats, batch
// sizes, the disorder buffer's stragglers, slack and depth, the fan-out ring
// gauges, ring-lap sheds, emission latency) and, with durability on, the
// durable_* series.
func TestRuntimeQueryMetricLabelParity(t *testing.T) {
	a, ts := apiTestApp(t, appConfig{obs: true, durableDir: t.TempDir(), batch: 8, n: 2000, rate: 100000})
	ctx, stopFeeds := context.WithCancel(context.Background())
	t.Cleanup(stopFeeds) // runs before apiTestApp's drain, which waits for the feeds
	a.startFeeds(ctx)
	registerSourceAndQuery(t, ts, "s1", "rt-q",
		`SELECT sum FROM s1 WINDOW 2s SLIDE 1s QUALITY 1%`)

	c := &netstream.Client{Addr: a.netl.Addr().String(), Source: "s1"}
	defer c.Close()
	if err := c.Send(context.Background(), sensorItems(500, 9)); err != nil {
		t.Fatal(err)
	}
	waitTuples(t, ts, "rt-q", 500)
	const compiled = "temp-avg-10s"
	builtin, ok := a.srv.get(compiled)
	if !ok {
		t.Fatalf("no compiled-in query %s", compiled)
	}
	for deadline := time.Now().Add(10 * time.Second); builtin.status().TuplesIn == 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never ingested", compiled)
		}
	}

	text := scrapeMetrics(t, ts)
	for _, q := range []string{"rt-q", compiled} {
		l := `{query="` + q + `"`
		for _, want := range []string{
			`aq_stage_tuples_total` + l + `,stage="source"}`,
			`aq_stage_tuples_total` + l + `,stage="disorder"}`,
			`aq_stage_tuples_total` + l + `,stage="window"}`,
			`aq_heartbeats_total` + l + `}`,
			`aq_batch_size_tuples_count` + l + `,queue="ingest"}`,
			`aq_buffer_stragglers_total` + l + `}`,
			`aq_buffer_k_ms` + l + `}`,
			`aq_buffer_depth` + l + `}`,
			`aq_fanout_lag_batches` + l + `}`,
			`aq_queue_depth` + l + `,queue="fanout"}`,
			`aq_shed_tuples_total` + l + `}`,
			`aq_emit_latency_ms_count` + l + `}`,
			`durable_journal_appends_total` + l + `}`,
			`durable_journal_commits_total` + l + `}`,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("/metrics missing %s", want)
			}
		}
		// Live, not merely registered: the step core counts what it steps.
		if v := metricValue(t, text, `aq_stage_tuples_total\{query="`+q+`",stage="source"\} ([0-9.e+]+)`); v == 0 {
			t.Errorf("aq_stage_tuples_total{query=%q,stage=\"source\"} = 0 after the query ingested", q)
		}
	}
}

// TestAPIDeleteReleasesRunner: with -obs, DELETE forgets the query's series.
// /metrics and /api/stats carry none of them afterwards, the metric history
// is back at its track count, and nothing keeps the deleted runner alive —
// the registry's callbacks used to capture it for the life of the process,
// and the history kept their tracks, with their points, as long.
func TestAPIDeleteReleasesRunner(t *testing.T) {
	a, ts := apiTestApp(t, appConfig{obs: true, batch: 8, statsStep: time.Hour})
	const cqlText = `SELECT sum FROM s1 WINDOW 2s SLIDE 1s QUALITY 1%` // watchdog, burn rate, controller series
	hist := a.srv.history
	tracks := func() int {
		hist.Sample()
		return len(hist.Query(obs.HistoryQuery{}))
	}
	// One register/feed/delete round creates whatever the source, the routes
	// and the listener register for good; the track count after it is the
	// baseline.
	cycle := func(names []string, freed *atomic.Int64) {
		for _, n := range names {
			registerSourceAndQuery(t, ts, "s1", n, cqlText)
		}
		send(t, a, "s1", sensorItems(300, 5))
		for _, n := range names {
			waitTuples(t, ts, n, 300)
			if freed != nil {
				q, _ := a.srv.get(n)
				// The runner sits in a cycle with its window stage's sink, and
				// Go never finalizes an object in a cycle: watch its SLO
				// watchdog, a leaf nothing but the runner, its tracer and its
				// series reference.
				runtime.SetFinalizer(q.watchdog, func(*tracez.Watchdog) { freed.Add(1) })
			}
		}
		if freed != nil && tracks() == 0 {
			t.Fatal("no tracks sampled")
		}
		for _, n := range names {
			if resp := doDelete(t, ts, "/api/queries/"+n); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("DELETE %s: %d", n, resp.StatusCode)
			}
		}
		getStats(t, ts, "")
	}
	cycle([]string{"warm"}, nil)
	baseline := tracks()

	names := []string{"d0", "d1", "d2", "d3", "d4", "d5"}
	var freed atomic.Int64
	cycle(names, &freed)
	if n := tracks(); n != baseline {
		t.Errorf("history holds %d tracks after the deletes, %d before the queries", n, baseline)
	}
	metrics := scrapeMetrics(t, ts)
	sr, _ := getStats(t, ts, "")
	for _, n := range append(names, "warm") {
		if strings.Contains(metrics, `query="`+n+`"`) {
			t.Errorf("/metrics still carries series of deleted query %s", n)
		}
		for _, s := range sr.Series {
			if s.Labels["query"] == n {
				t.Errorf("/api/stats still carries %s of deleted query %s", s.Name, n)
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < int64(len(names)); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d deleted runners collected", freed.Load(), len(names))
		}
		runtime.GC()
	}
}

// TestAPIBufferGaugesReadTheHandler: currentK, aq_buffer_k_ms and
// aq_buffer_depth are read from the query's disorder handler, whichever it
// is. They used to be wired to the adaptive controller only: every other
// handler reported its statement's literal K (0 for maxslack, wm and
// punctuated, which have none) and a depth of 0.
func TestAPIBufferGaugesReadTheHandler(t *testing.T) {
	a, ts := apiTestApp(t, appConfig{obs: true, batch: 8})
	registerSourceAndQuery(t, ts, "s1", "mq",
		`SELECT sum FROM s1 WINDOW 2s SLIDE 1s HANDLER maxslack`)
	if resp, body := postJSON(t, ts, "/api/queries", registerRequest{Name: "gq", Tenant: "t1",
		CQL: `SELECT sum FROM s1 GROUP BY key WINDOW 2s SLIDE 1s HANDLER kslack(500ms)`}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register grouped query: %d %s", resp.StatusCode, body)
	}

	c := &netstream.Client{Addr: a.netl.Addr().String(), Source: "s1"}
	defer c.Close()
	if err := c.Send(context.Background(), sensorItems(2000, 9)); err != nil {
		t.Fatal(err)
	}
	waitTuples(t, ts, "mq", 2000)
	waitTuples(t, ts, "gq", 2000)

	text := scrapeMetrics(t, ts)
	gauge := func(name, query string) float64 {
		return metricValue(t, text, name+`\{query="`+query+`"\} ([0-9.e+]+)`)
	}
	if st, _ := getStatus(t, ts, "mq"); st.K <= 0 {
		t.Errorf("maxslack query over a disordered feed reports currentK = %d", st.K)
	}
	if k := gauge("aq_buffer_k_ms", "mq"); k <= 0 {
		t.Errorf("aq_buffer_k_ms{mq} = %v, want the max-slack handler's K", k)
	}
	if st, _ := getStatus(t, ts, "gq"); st.K != 500 || !st.Grouped {
		t.Errorf("grouped kslack(500ms) query reports currentK = %d grouped = %t", st.K, st.Grouped)
	}
	for _, q := range []string{"mq", "gq"} {
		if d := gauge("aq_buffer_depth", q); d <= 0 {
			t.Errorf("aq_buffer_depth{%s} = %v with the stream still open, want the buffered tuples", q, d)
		}
	}
}

// TestAPIGroupedAnyFixedHandler: a GROUP BY query registers behind any fixed
// HANDLER, not only kslack(...), and emits exactly what the grouped plan
// emits in-process.
func TestAPIGroupedAnyFixedHandler(t *testing.T) {
	const text = `SELECT sum FROM s7 GROUP BY key WINDOW 2s SLIDE 1s HANDLER maxslack`
	a, ts := apiTestApp(t, appConfig{batch: 8})
	registerSourceAndQuery(t, ts, "s7", "gmax", text) // fails the test unless 201
	items := sensorItems(3000, 47)
	for i := range items {
		items[i].Tuple.Key = items[i].Tuple.Seq % 3
	}
	send(t, a, "s7", items)
	waitTuples(t, ts, "gmax", int64(len(items)))
	dropAndCompare(t, a, ts, items, map[string]string{"gmax": text})
}
