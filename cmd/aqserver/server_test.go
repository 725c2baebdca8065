package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/fanout"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/window"
)

// adaptiveRunner builds a non-grouped runner over the adaptive controller
// the way buildRunner does, minus the app around it: tests step it
// themselves, and only the wiring def carries.
func adaptiveRunner(t testing.TB, def runnerDef) *queryRunner {
	t.Helper()
	h := core.NewAQKSlack(core.Config{Theta: def.theta, Spec: def.spec, Agg: def.agg})
	if def.reg != nil {
		h.Instrument(core.NewTelemetry(def.reg, def.name))
	}
	def.handler = h
	return ringRunner(t, def)
}

// testRings is the ring each runner a test builds reads: the feed helpers
// publish into it, as a compiled-in stream's producer does.
var testRings = map[*queryRunner]*fanout.Broadcast{}

// ringRunner places def on a Block ring of its own, as buildRunner places a
// compiled-in query: its group's loop steps what the feed helpers publish.
func ringRunner(t testing.TB, def runnerDef) *queryRunner {
	t.Helper()
	b := fanout.New(fanout.Options{})
	var reg groupRegistry
	q, err := reg.place(def, nil, b)
	if err != nil {
		t.Fatal(err)
	}
	testRings[q] = b
	return q
}

// feedTuples steps the runner one tuple at a time.
func feedTuples(q *queryRunner, tuples []stream.Tuple) {
	items := make([]stream.Item, len(tuples))
	for i, tp := range tuples {
		items[i] = stream.DataItem(tp)
	}
	feedBatches(q, items, 1)
}

// sumRunner is adaptiveRunner for the tests' stock query: a 10s/1s sum.
func sumRunner(t testing.TB, name string, theta float64) *queryRunner {
	return adaptiveRunner(t, runnerDef{name: name, theta: theta,
		spec: window.Spec{Size: 10 * stream.Second, Slide: stream.Second}, agg: window.Sum()})
}

func testRunner(t *testing.T) *queryRunner {
	t.Helper()
	q := sumRunner(t, "test-sum", 0.02)
	feedTuples(q, gen.Sensor(20000, 9).Arrivals())
	q.finish()
	return q
}

func TestQueryRunnerPipeline(t *testing.T) {
	q := testRunner(t)
	st := q.status()
	if st.TuplesIn != 20000 {
		t.Fatalf("TuplesIn = %d", st.TuplesIn)
	}
	if st.Windows == 0 {
		t.Fatal("no windows emitted")
	}
	if !st.Done {
		t.Fatal("not marked done after finish")
	}
	if st.Adaptations == 0 {
		t.Fatal("handler never adapted")
	}
	if got := q.recentResults(10); len(got) != 10 {
		t.Fatalf("recentResults(10) returned %d", len(got))
	}
	if got := q.recentResults(0); len(got) == 0 || len(got) > resultRing {
		t.Fatalf("recentResults(0) returned %d", len(got))
	}
	if len(q.trace()) != st.Adaptations {
		t.Fatalf("trace length %d != adaptations %d", len(q.trace()), st.Adaptations)
	}
}

func TestServerEndpoints(t *testing.T) {
	srv := newServer()
	srv.add(testRunner(t))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	getJSON := func(path string, into any) int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("GET %s: decode: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var health map[string]string
	if code := getJSON("/healthz", &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}

	var list []status
	if code := getJSON("/queries", &list); code != 200 || len(list) != 1 {
		t.Fatalf("queries: %d %v", code, list)
	}
	if list[0].Name != "test-sum" || list[0].Aggregate != "sum" {
		t.Fatalf("status payload: %+v", list[0])
	}

	var one status
	if code := getJSON("/queries/test-sum", &one); code != 200 || one.TuplesIn != 20000 {
		t.Fatalf("single query: %d %+v", code, one)
	}

	var results []resultJSON
	if code := getJSON("/queries/test-sum/results?last=5", &results); code != 200 || len(results) != 5 {
		t.Fatalf("results: %d, %d rows", code, len(results))
	}
	for _, r := range results {
		if r.End <= r.Start {
			t.Fatalf("bad result bounds: %+v", r)
		}
	}

	var trace []json.RawMessage
	if code := getJSON("/queries/test-sum/trace", &trace); code != 200 || len(trace) == 0 {
		t.Fatalf("trace: %d, %d samples", code, len(trace))
	}

	var none status
	if code := getJSON("/queries/bogus", &none); code != 404 {
		t.Fatalf("unknown query returned %d", code)
	}
	if code := getJSON("/queries/test-sum/bogus", &none); code != 404 {
		t.Fatalf("unknown endpoint returned %d", code)
	}
}

// TestResultsNonFiniteValueIsNull: a max query over a stream with an
// event-time gap wider than its window emits the empty windows in between,
// whose max is NaN. JSON has no NaN, so those rows carry a null value and the
// endpoint still answers 200 — one such window used to fail it whole.
func TestResultsNonFiniteValueIsNull(t *testing.T) {
	sec := stream.Second
	q := kslackRunner(t, runnerDef{name: "gap-max", spec: window.Spec{Size: sec, Slide: sec}, agg: window.Max()}, 100)
	var items []stream.Item
	for i, ts := range []stream.Time{100, 600, 5100, 5600} {
		items = append(items, stream.DataItem(stream.Tuple{TS: ts, Arrival: ts, Seq: uint64(i), Value: float64(i)}))
	}
	feedBatches(q, items, len(items))
	q.finish()
	srv := newServer()
	srv.add(q)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/queries/gap-max/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) {
		t.Fatalf("status %d, Content-Length %d for a %d-byte body: %s", resp.StatusCode, resp.ContentLength, len(body), body)
	}
	var rows []struct {
		Window int64
		Value  *float64
	}
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	want := map[int64]float64{0: 1, 5: 3} // windows 1-4 are empty
	if len(rows) != 6 {
		t.Fatalf("got %d windows, want 0-5: %s", len(rows), body)
	}
	for _, r := range rows {
		v, ok := want[r.Window]
		if ok != (r.Value != nil) || ok && *r.Value != v {
			t.Fatalf("window %d: value %v, want %v (null for an empty window): %s", r.Window, r.Value, v, body)
		}
	}
}

// TestStatusResilienceFields asserts the degradation counters are
// exported via the /queries/{name} status JSON.
func TestStatusResilienceFields(t *testing.T) {
	q := handlerRunner(t, runnerDef{name: "degraded-sum", spec: window.Spec{Size: 10 * stream.Second, Slide: stream.Second}, agg: window.Sum()},
		&chokingHandler{Handler: buffer.NewKSlack(400), chokes: func(tp stream.Tuple) bool { return tp.Seq%1000 == 3 }})
	feedTuples(q, gen.Sensor(20000, 9).Arrivals())
	q.addRetries(7)
	q.finish()

	srv := newServer()
	srv.add(q)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/queries/degraded-sum")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"shedTuples", "sourceRetries", "stagePanics", "health", "realizedErrAdjusted"} {
		if _, ok := raw[field]; !ok {
			t.Fatalf("status JSON missing %q: %v", field, raw)
		}
	}
	if raw["sourceRetries"].(float64) != 7 {
		t.Fatalf("sourceRetries = %v, want 7", raw["sourceRetries"])
	}
	if raw["stagePanics"].(float64) != 20 {
		t.Fatalf("stagePanics = %v, want 20 (panic isolation failed?)", raw["stagePanics"])
	}
	st := q.status()
	if st.Health != healthDone {
		t.Fatalf("health = %q after finish", st.Health)
	}
	// The poisoned tuples were isolated, not fatal: everything else in the
	// stream was processed.
	if st.TuplesIn+st.Panics != 20000 {
		t.Fatalf("tuplesIn %d + panics %d != 20000", st.TuplesIn, st.Panics)
	}
}

// TestAppDrain is the graceful-shutdown test: cancelling the feed context
// (what SIGTERM does in main) must stop the loops, flush every runner's
// windows via finish(), and flip /readyz to 503 with per-query health — and
// leave no goroutine behind.
func TestAppDrain(t *testing.T) {
	base := steadyGoroutines()
	a, err := newApp(appConfig{n: 5000, rate: 2_000_000,
		chaos: resilience.Chaos{ErrorRate: 0.001, DupRate: 0.001}, chaosOn: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv.handler())
	defer ts.Close()

	getReady := func() (int, readiness) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rd readiness
		if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rd
	}

	code, rd := getReady()
	if code != 200 || !rd.Ready || rd.Draining {
		t.Fatalf("before feeds: %d %+v", code, rd)
	}

	ctx, cancel := context.WithCancel(context.Background())
	a.startFeeds(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("queries never started ingesting")
		}
		// Every runner must have made real progress, or the cancel can land
		// before a slow-starting query has anything to flush.
		progressed := 0
		for _, q := range a.runners {
			if q.status().TuplesIn > 500 {
				progressed++
			}
		}
		if progressed == len(a.runners) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	a.drain()

	code, rd = getReady()
	if code != http.StatusServiceUnavailable || rd.Ready || !rd.Draining {
		t.Fatalf("during drain: %d %+v", code, rd)
	}
	if len(rd.Queries) != len(a.runners) {
		t.Fatalf("readyz reports %d queries, want %d", len(rd.Queries), len(a.runners))
	}
	for name, h := range rd.Queries {
		if h != healthDone {
			t.Fatalf("query %s health %q after drain, want %q", name, h, healthDone)
		}
	}
	for _, q := range a.runners {
		st := q.status()
		if !st.Done {
			t.Fatalf("runner %s not finished after drain", st.Name)
		}
		if st.Windows == 0 {
			t.Fatalf("runner %s flushed no windows — finish() did not run?", st.Name)
		}
	}
	// Idempotent: a second drain must not panic or deadlock.
	a.drain()
	ts.Close()
	settleGoroutines(t, base)
}

// TestFeedLoopEmptyGeneratorMarksDone is the regression test for the old
// silent-return: a generator yielding zero tuples must mark the query
// done instead of leaving it in limbo forever.
func TestFeedLoopEmptyGeneratorMarksDone(t *testing.T) {
	q := sumRunner(t, "empty", 0.02)
	b := testRings[q]
	done := make(chan struct{})
	go func() {
		defer close(done)
		fanoutFeedLoop(context.Background(), b, []*queryRunner{q}, "empty",
			func(uint64) gen.Config { return gen.Config{} }, 1, appConfig{rate: 1_000_000}, nil)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("fanoutFeedLoop did not return on an empty generator")
	}
	if st := q.status(); !st.Done || st.Health != healthDone {
		t.Fatalf("empty-generator query left in limbo: %+v", st)
	}
}

// handlerRunner builds a runner over a given handler, the shape of a runtime
// query registered with HANDLER ...(...).
func handlerRunner(t *testing.T, def runnerDef, h buffer.Handler) *queryRunner {
	t.Helper()
	def.log = slog.New(slog.NewTextHandler(io.Discard, nil)) // these tests provoke error logs on purpose
	def.handler = h
	return ringRunner(t, def)
}

// kslackRunner is handlerRunner over a fixed-slack buffer.
func kslackRunner(t *testing.T, def runnerDef, k stream.Time) *queryRunner {
	return handlerRunner(t, def, buffer.NewKSlack(k))
}

// feedBatches publishes items into a runner's ring in whole batches of n,
// and returns once its group's loop has stepped and released every one.
func feedBatches(q *queryRunner, items []stream.Item, n int) {
	b := testRings[q]
	for len(items) > 0 {
		m := min(n, len(items))
		if err := b.Publish(context.Background(), append(b.Get(), items[:m]...)); err != nil {
			panic(err)
		}
		items = items[m:]
	}
	for q.grp.Sub().Lag() > 0 {
		runtime.Gosched()
	}
}

// TestRunnerNonMonotoneArrivalsMatchRun is the server half of the
// arrival-clock regression test (the engine half is cq's
// TestNonMonotoneArrivalsSameOnEveryDriver): a sender whose Arrival goes
// backwards must see the same windows from a server runner as from the
// in-process oracle executor.
func TestRunnerNonMonotoneArrivalsMatchRun(t *testing.T) {
	items := sensorItems(8000, 73)
	for i := range items {
		if i%7 == 3 {
			items[i].Tuple.Arrival -= 700
		}
	}
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	q := kslackRunner(t, runnerDef{name: "backwards", spec: spec, agg: window.Sum()}, 400)
	feedBatches(q, items, 50)
	q.finish()

	want, err := cq.New(stream.NewSliceSource(items)).Handle(buffer.NewKSlack(400)).Window(spec, window.Sum()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) == 0 {
		t.Fatal("oracle emitted no windows; the comparison proves nothing")
	}
	if err := oracle.SameOutput(runnerReport(t, q), want); err != nil {
		t.Fatalf("server runner diverged from cq.Run on backward arrivals: %v", err)
	}
}

// TestRunnerJournalFailureKeepsProcessing pins the server's policy for a
// durability failure (cq's drivers abort instead): every batch is still
// applied, the failure is counted, and the query reports degraded.
func TestRunnerJournalFailureKeepsProcessing(t *testing.T) {
	dlog, err := durable.Open(durable.Options{Dir: t.TempDir(), CommitEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dlog.Close(); err != nil { // every append now fails at its flush
		t.Fatal(err)
	}
	q := kslackRunner(t, runnerDef{name: "lossy-journal", dlog: dlog,
		spec: window.Spec{Size: 10 * stream.Second, Slide: stream.Second}, agg: window.Sum()}, 400)
	items := sensorItems(4000, 5)
	feedBatches(q, items, 64)
	st := q.status()
	if st.TuplesIn != int64(len(items)) || st.Windows == 0 {
		t.Fatalf("journal failure stopped processing: tuplesIn=%d of %d, windows=%d", st.TuplesIn, len(items), st.Windows)
	}
	if st.JournalErrs == 0 || !st.Durable || st.Health != healthDegraded {
		t.Fatalf("journal failure not reported: %+v", st)
	}
	q.finish()
}

// TestRunnerPanicMidBatchResumes drives every way a panic can hit a batch
// handed over whole; each costs the item in flight and nothing else. A panic
// from the disorder stage — a handler that chokes on one tuple — is resumed
// behind the item in flight: it is skipped, the rest of its batch is
// applied. One from inside the core's window stage costs not even that: a
// non-built-in aggregate is fed at emission, by an ordered scan of the
// window, so one that chokes on a value panics while a window is being
// emitted — with the tuple in flight already stored and the emit cursor not
// yet moved. Resume carries on behind it and
// the next advance tries the window again; this aggregate chokes every time,
// so after window.Op's bounded tries each of the ten windows holding the
// value is given up (emitted as NaN, counted) and the stream moves on. And
// because a batch is journaled before it is applied, the poisoned item is in
// the journal: a restart replays it, and must isolate it again instead of
// dying in the constructor.
func TestRunnerPanicMidBatchResumes(t *testing.T) {
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	items := sensorItems(5000, 11)

	inner := buffer.NewKSlack(400)
	poisoned := items[1234].Tuple.Seq
	h := handlerRunner(t, runnerDef{name: "choking-handler", spec: spec, agg: window.Sum()},
		&chokingHandler{Handler: inner, chokes: func(tp stream.Tuple) bool { return tp.Seq == poisoned }})
	feedBatches(h, items, 500)
	h.finish()
	if st, in := h.status(), inner.Stats().Inserted; st.Panics != 1 || st.Health != healthDone || in != int64(len(items))-1 {
		t.Fatalf("handler panic: panics=%d health=%s inserted=%d, want 1, done and %d (everything but the poisoned tuple)",
			st.Panics, st.Health, in, len(items)-1)
	}
	if rep := h.exec.Report(); rep.Op.TuplesIn != rep.Handler.Released {
		t.Fatalf("handler panic: %d tuples released, %d observed: releases around the panic were dropped",
			rep.Handler.Released, rep.Op.TuplesIn)
	}

	poison := items[1234].Tuple.Value
	choking := runnerDef{name: "choke", spec: spec, agg: window.Factory{Name: "choking-sum", New: func() window.Aggregate {
		return &chokingSum{Aggregate: window.Sum().New(), poison: poison}
	}}}
	opts := durable.Options{Dir: t.TempDir(), CommitEvery: 64}
	var err error
	if choking.dlog, err = durable.Open(opts); err != nil {
		t.Fatal(err)
	}
	q := kslackRunner(t, choking, 400)
	feedBatches(q, items[:3000], 500)
	st := q.status()
	if st.Panics == 0 || st.Health != healthDegraded {
		t.Fatalf("core panic not isolated and reported: %+v", st)
	}
	if st.TuplesIn != 3000 {
		t.Fatalf("tuplesIn = %d, want 3000: the batch behind the panic was dropped", st.TuplesIn)
	}
	rep := q.exec.Report()
	if lost := rep.Handler.Released - rep.Op.TuplesIn; lost < 0 || lost > 10*st.Panics {
		t.Fatalf("%d panics cost %d released tuples: Resume did not pick the batch up behind the item in flight",
			st.Panics, lost)
	}
	// Panics during emission cost no tuple, and no window but the ten that
	// hold the value: the runner is where one that never choked is.
	calm := kslackRunner(t, runnerDef{name: "calm", spec: spec, agg: window.Sum()}, 400)
	feedBatches(calm, items[:3000], 500)
	if cs, co := calm.status(), calm.exec.Report().Op; st.Windows != cs.Windows || rep.Op.EmitFailed != 10 ||
		rep.Op.TuplesIn != co.TuplesIn || rep.Op.Emitted != co.Emitted {
		t.Fatalf("%d emission panics cost input or windows: op %+v, %d windows; a runner that never choked has %+v, %d",
			st.Panics, rep.Op, st.Windows, co, cs.Windows)
	}
	choking.dlog.Abandon() // the process dies; every stepped batch was group-committed

	if choking.dlog, err = durable.Open(opts); err != nil {
		t.Fatal(err)
	}
	defer choking.dlog.Close()
	q = kslackRunner(t, choking, 400) // must not panic
	st = q.status()
	if st.Recovery == nil || st.Recovery.ReplayedItems != 3000 || st.TuplesIn != 3000 {
		t.Fatalf("restart did not replay the journal: %+v", st)
	}
	if st.Panics == 0 || st.Health != healthDegraded {
		t.Fatalf("replayed poison not isolated and reported: %+v", st)
	}
	feedBatches(q, items[3000:], 500)
	q.finish()
	if st = q.status(); st.TuplesIn != int64(len(items)) || st.JournalErrs != 0 {
		t.Fatalf("recovered runner did not carry on: %+v", st)
	}
}

// TestGroupedRunnerPanicIsolated: a GROUP BY runner is stepped under the
// same panic isolation as every other. The aggregate chokes once,
// while a window of one key is being emitted: the panic is counted, the
// runner is degraded, the rest of the batch is applied, the window is
// emitted by the next advance, and at the end nothing is missing.
func TestGroupedRunnerPanicIsolated(t *testing.T) {
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	cfg := gen.Sensor(6000, 21)
	cfg.NumKeys = 16
	items := stream.Collect(cfg.Source())

	choked := false
	poison := items[2500].Tuple.Value
	choking := window.Factory{Name: "choke-once-sum", New: func() window.Aggregate {
		return &chokeOnceSum{Aggregate: window.Sum().New(), poison: poison, choked: &choked}
	}}
	q := kslackRunner(t, runnerDef{name: "grouped-choke", grouped: true, spec: spec, agg: choking}, 400)
	feedBatches(q, items[:4000], 128)
	mid := q.status()
	if mid.Panics != 1 || mid.Health != healthDegraded || !mid.Grouped {
		t.Fatalf("grouped panic not isolated and reported: %+v", mid)
	}
	if mid.TuplesIn != 4000 {
		t.Fatalf("tuplesIn = %d, want 4000: the batch behind the panic was dropped", mid.TuplesIn)
	}
	feedBatches(q, items[4000:], 128)
	if st := q.status(); st.Windows <= mid.Windows || st.Panics != 1 || st.Health != healthDegraded {
		t.Fatalf("degraded grouped runner stopped emitting: %+v after %+v", st, mid)
	}
	q.finish()

	calm := kslackRunner(t, runnerDef{name: "grouped-calm", grouped: true, spec: spec,
		agg: window.Factory{Name: "calm-sum", New: window.Sum().New}}, 400)
	feedBatches(calm, items, 128)
	calm.finish()
	st, cs := q.status(), calm.status()
	if st.Windows != cs.Windows || st.TuplesIn != cs.TuplesIn || cs.Panics != 0 {
		t.Fatalf("the panic cost input or windows: %+v, a runner that never choked has %+v", st, cs)
	}
	if got, want := q.recentResults(0), calm.recentResults(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("results after the panic differ from a runner that never choked")
	}
}

// chokeOnceSum is a sum that panics the first time any instance meets one
// value.
type chokeOnceSum struct {
	window.Aggregate
	poison float64
	choked *bool
}

func (a *chokeOnceSum) Add(v float64) {
	if v == a.poison && !*a.choked {
		*a.choked = true
		panic("poisoned value")
	}
	a.Aggregate.Add(v)
}

// chokingHandler panics on the tuples chokes picks, before its handler sees
// them.
type chokingHandler struct {
	buffer.Handler
	chokes func(stream.Tuple) bool
}

func (h *chokingHandler) Insert(it stream.Item, out []stream.Tuple) []stream.Tuple {
	if !it.Heartbeat && h.chokes(it.Tuple) {
		panic("poisoned tuple")
	}
	return h.Handler.Insert(it, out)
}

// chokingSum is a sum that panics on one value.
type chokingSum struct {
	window.Aggregate
	poison float64
}

func (a *chokingSum) Add(v float64) {
	if v == a.poison {
		panic("poisoned value")
	}
	a.Aggregate.Add(v)
}
