package main

// Disorder-pass groups (group.go) at the socket level: queries over one
// source behind the same fixed handler share one subscription and one
// K-slack, and every member's output is what the same plan run alone
// in-process emits (oracle.SameOutput) — whether it joined first or late,
// left mid-stream, panicked, shed, or was never allowed to share.

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/buffer"
	"repro/internal/cq"
	"repro/internal/fanout"
	"repro/internal/netstream"
	"repro/internal/obs/tracez"
	"repro/internal/oracle"
	"repro/internal/stream"
	"repro/internal/window"
)

// fanoutCQL are aqbench's fanout8_windows queries on one source: three behind
// kslack(500ms), one behind kslack(2s).
var fanoutCQL = map[string]string{
	"s0-tumble": `SELECT sum FROM s0 WINDOW 1s SLIDE 1s HANDLER kslack(500ms)`,
	"s0-max60":  `SELECT max FROM s0 WINDOW 60s SLIDE 1s HANDLER kslack(500ms)`,
	"s0-p95":    `SELECT p95 FROM s0 WINDOW 10s SLIDE 1s HANDLER kslack(500ms)`,
	"s0-count":  `SELECT count FROM s0 WINDOW 10s SLIDE 1s HANDLER kslack(2s)`,
}

// registerQueries registers each named statement over HTTP.
func registerQueries(t *testing.T, ts *httptest.Server, queries map[string]string) {
	t.Helper()
	for name, text := range queries {
		if resp, body := postJSON(t, ts, "/api/queries", registerRequest{Name: name, Tenant: "t1", CQL: text}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("register %s: %d %s", name, resp.StatusCode, body)
		}
	}
}

// memberReport is runnerReport for a runner that may share its group: its
// own window stage's report.
func memberReport(t *testing.T, q *queryRunner) *cq.AggReport {
	t.Helper()
	results := q.recentResults(0)
	if len(results) == resultRing {
		t.Fatalf("%s: result ring overflowed; shrink the plan so the comparison sees every window", q.name)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	rep := q.stage.Report()
	return &cq.AggReport{Results: results, PreFlush: rep.PreFlush, Handler: rep.Handler, Op: rep.Op}
}

// send streams items to a source over one TCP connection.
func send(t *testing.T, a *app, source string, items []stream.Item) {
	t.Helper()
	c := &netstream.Client{Addr: a.netl.Addr().String(), Source: source}
	defer c.Close()
	if err := c.Send(context.Background(), items); err != nil {
		t.Fatal(err)
	}
}

// dropAndCompare deletes each query — its windows are flushed — and holds
// what it emitted to the plan run alone in-process over items.
func dropAndCompare(t *testing.T, a *app, ts *httptest.Server, items []stream.Item, queries map[string]string) {
	t.Helper()
	for name, text := range queries {
		q, ok := a.srv.get(name)
		if !ok {
			t.Fatalf("runner %s not found", name)
		}
		if resp := doDelete(t, ts, "/api/queries/"+name); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE %s: %d", name, resp.StatusCode)
		}
		want := runOracle(t, text, items)
		if len(want.Results) == 0 {
			t.Fatalf("%s: the in-process run emitted nothing; the comparison proves nothing", name)
		}
		if err := oracle.SameOutput(memberReport(t, q), want); err != nil {
			t.Fatalf("%s diverged from its plan run alone: %v", name, err)
		}
	}
}

// TestAPISharedDisorderPass: fanout8_windows' four queries on one source
// attach two ring subscribers, not four — the three kslack(500ms) queries
// are one group — and each emits exactly what it emits alone.
func TestAPISharedDisorderPass(t *testing.T) {
	a, ts := apiTestApp(t, appConfig{batch: 8})
	if resp, body := postJSON(t, ts, "/api/sources", map[string]string{"name": "s0"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create source: %d %s", resp.StatusCode, body)
	}
	registerQueries(t, ts, fanoutCQL)
	if n := a.fleet.Source("s0").Subscribers(); n != 2 {
		t.Fatalf("the ring has %d subscribers, want 2: one per distinct handler", n)
	}
	tumble, _ := a.srv.get("s0-tumble")
	for _, name := range []string{"s0-max60", "s0-p95"} {
		if q, _ := a.srv.get(name); q.grp != tumble.grp {
			t.Fatalf("%s is not in the kslack(500ms) group", name)
		}
	}

	items := sensorItems(8000, 31)
	send(t, a, "s0", items)
	for name := range fanoutCQL {
		waitTuples(t, ts, name, int64(len(items)))
	}
	dropAndCompare(t, a, ts, items, fanoutCQL)
	if n := a.fleet.Source("s0").Subscribers(); n != 0 {
		t.Fatalf("%d subscribers left after every query was deleted", n)
	}
}

// TestRuntimeGroupRecyclesRingBatches: a runtime group stepping a fleet
// source hands each batch back to the ring at its release, so a producer
// that lets the group catch up between publishes cycles a few item slices
// through the 256-slot ring, not one per slot.
func TestRuntimeGroupRecyclesRingBatches(t *testing.T) {
	a, ts := apiTestApp(t, appConfig{batch: 8})
	if resp, body := postJSON(t, ts, "/api/sources", map[string]string{"name": "s0"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create source: %d %s", resp.StatusCode, body)
	}
	registerQueries(t, ts, map[string]string{"s0-tumble": fanoutCQL["s0-tumble"]})
	q, _ := a.srv.get("s0-tumble")
	src := a.fleet.Source("s0")
	items := sensorItems(4000, 37)
	const per = 4
	seen := map[*stream.Item]bool{}
	for off := 0; off < len(items); off += per {
		batch := src.Get()
		seen[unsafe.SliceData(batch)] = true
		if err := src.PublishOwned(append(batch, items[off:off+per]...), stream.BatchProv{}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for q.grp.Sub().Lag() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("the group is stuck %d batches behind", q.grp.Sub().Lag())
			}
			runtime.Gosched()
		}
	}
	waitTuples(t, ts, "s0-tumble", int64(len(items)))
	// The group's release stores its cursor before it recycles, so the next
	// Get may come first: one slice in the ring, one pending, one filled.
	if len(seen) > 3 {
		t.Fatalf("%d publishes used %d distinct item slices, want at most 3", len(items)/per, len(seen))
	}
}

// TestAPILateJoinOpensOwnGroup: a query registered after data has flowed on
// its source cannot join the group already there — its handler would hold
// tuples the query never saw — so it opens a group of its own, and sees
// exactly what a query attached at that moment sees.
func TestAPILateJoinOpensOwnGroup(t *testing.T) {
	const text = `SELECT sum FROM s1 WINDOW 4s SLIDE 1s HANDLER kslack(500ms)`
	a, ts := apiTestApp(t, appConfig{batch: 8})
	registerSourceAndQuery(t, ts, "s1", "early", text)
	items := sensorItems(6000, 43)
	half := len(items) / 2
	send(t, a, "s1", items[:half])
	waitTuples(t, ts, "early", int64(half))

	registerQueries(t, ts, map[string]string{"late": text})
	if n := a.fleet.Source("s1").Subscribers(); n != 2 {
		t.Fatalf("the ring has %d subscribers, want 2: a late query opens its own group", n)
	}
	send(t, a, "s1", items[half:])
	waitTuples(t, ts, "early", int64(len(items)))
	waitTuples(t, ts, "late", int64(len(items)-half))
	dropAndCompare(t, a, ts, items, map[string]string{"early": text})
	dropAndCompare(t, a, ts, items[half:], map[string]string{"late": text})
}

// TestAPIDeleteMemberMidStream: a member deleted while its group runs
// flushes through a private copy of the handler — its output is the plan
// run over what it saw — and its peers, whose handler keeps every tuple it
// holds, emit exactly what they would alone.
func TestAPIDeleteMemberMidStream(t *testing.T) {
	const text = `SELECT avg FROM s2 WINDOW 2s SLIDE 1s HANDLER maxslack`
	a, ts := apiTestApp(t, appConfig{batch: 8})
	registerSourceAndQuery(t, ts, "s2", "stay", text)
	registerQueries(t, ts, map[string]string{"go": text, "stay2": text})
	if n := a.fleet.Source("s2").Subscribers(); n != 1 {
		t.Fatalf("the ring has %d subscribers, want 1", n)
	}
	items := sensorItems(4000, 53)
	third := len(items) / 3
	send(t, a, "s2", items[:third])
	waitTuples(t, ts, "go", int64(third))
	gone, _ := a.srv.get("go")
	dropAndCompare(t, a, ts, items[:third], map[string]string{"go": text})
	if gone.healthState() != healthDone {
		t.Fatalf("deleted member health %s, want done", gone.healthState())
	}

	send(t, a, "s2", items[third:])
	waitTuples(t, ts, "stay", int64(len(items)))
	waitTuples(t, ts, "stay2", int64(len(items)))
	dropAndCompare(t, a, ts, items, map[string]string{"stay": text, "stay2": text})
}

// TestAPIDurableQueriesStayPrivate: a journaled query's snapshot is its own
// handler's, so with -durable-dir two identical plain queries take two
// subscriptions — and each still emits what it emits alone.
func TestAPIDurableQueriesStayPrivate(t *testing.T) {
	const text = `SELECT sum FROM s3 WINDOW 2s SLIDE 1s HANDLER kslack(500ms)`
	a, ts := apiTestApp(t, appConfig{batch: 8, durableDir: t.TempDir()})
	queries := map[string]string{"d1": text, "d2": text}
	registerSourceAndQuery(t, ts, "s3", "d1", text)
	registerQueries(t, ts, map[string]string{"d2": text})
	d1, _ := a.srv.get("d1")
	d2, _ := a.srv.get("d2")
	if n := a.fleet.Source("s3").Subscribers(); n != 2 || d1.grp == d2.grp || d1.dlog == nil || d2.dlog == nil {
		t.Fatalf("durable queries: %d subscribers, shared group %t; want 2 private, journaled groups", n, d1.grp == d2.grp)
	}
	items := sensorItems(3000, 61)
	send(t, a, "s3", items)
	for name := range queries {
		waitTuples(t, ts, name, int64(len(items)))
	}
	dropAndCompare(t, a, ts, items, queries)
}

// TestAPIGroupShedAccounting laps a group on its ShedOldest subscription:
// every member is charged exactly what the group lost (tuples in plus shed
// tuples is what was published, for each; its flight recorder's shed events
// add up to the ring's laps), and the members, fed the same delivered
// stream, emit the same windows.
func TestAPIGroupShedAccounting(t *testing.T) {
	const text = `SELECT sum FROM s4 WINDOW 2s SLIDE 1s HANDLER kslack(200ms)`
	a, ts := apiTestApp(t, appConfig{batch: 8})
	registerSourceAndQuery(t, ts, "s4", "m1", text)
	registerQueries(t, ts, map[string]string{"m2": text, "m3": text})
	m1, _ := a.srv.get("m1")
	src := a.fleet.Source("s4")
	items := sensorItems(9000, 71)

	m1.mu.Lock() // the group's pump stalls inside its next step: the ring laps it
	for i := 0; i < len(items); i += 10 {
		if err := src.PublishProv(items[i:i+10], stream.BatchProv{}); err != nil {
			m1.mu.Unlock()
			t.Fatal(err)
		}
	}
	m1.mu.Unlock()

	deadline := time.Now().Add(15 * time.Second)
	for {
		done := 0
		for _, name := range []string{"m1", "m2", "m3"} {
			if st, _ := getStatus(t, ts, name); st.TuplesIn+st.Shed == int64(len(items)) {
				done++
			}
		}
		if done == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("members never accounted for every published tuple")
		}
		time.Sleep(2 * time.Millisecond)
	}
	first, _ := getStatus(t, ts, "m1")
	if first.Shed == 0 {
		t.Fatal("the ring never lapped the group; the test proves nothing")
	}
	reports := map[string]*cq.AggReport{}
	for _, name := range []string{"m1", "m2", "m3"} {
		if st, _ := getStatus(t, ts, name); st.Shed != first.Shed || st.TuplesIn != first.TuplesIn {
			t.Fatalf("%s: tuplesIn %d shed %d; m1: %d, %d", name, st.TuplesIn, st.Shed, first.TuplesIn, first.Shed)
		}
		q, _ := a.srv.get(name)
		if resp := doDelete(t, ts, "/api/queries/"+name); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE %s: %d", name, resp.StatusCode)
		}
		reports[name] = memberReport(t, q)
		var recorded int64
		for _, ev := range q.tracer.Recorder().Events() {
			if ev.Kind == tracez.KindShed {
				recorded += ev.N
			}
		}
		if lapped := q.grp.Sub().Shed(); recorded != lapped {
			t.Fatalf("%s: the flight recorder's shed events add up to %d tuples, the ring lapped %d", name, recorded, lapped)
		}
	}
	for _, name := range []string{"m2", "m3"} {
		if err := oracle.SameOutput(reports[name], reports["m1"]); err != nil {
			t.Fatalf("%s diverged from m1 on the same delivered stream: %v", name, err)
		}
	}
}

// TestAPIGroupGoroutines extends TestDriversLeakNoGoroutines' bound to the
// server: N queries behind one handler on one source add one pump goroutine,
// not N, and deleting every one of them returns the count to its baseline.
func TestAPIGroupGoroutines(t *testing.T) {
	a, _ := apiTestApp(t, appConfig{batch: 8})
	a.fleet.Source("s5")
	base := steadyGoroutines()
	names := []string{"g1", "g2", "g3", "g4", "g5", "g6"}
	for _, name := range names {
		if _, err := a.registerQuery(registerRequest{Name: name, Tenant: "t1",
			CQL: `SELECT count FROM s5 WINDOW 2s SLIDE 1s HANDLER kslack(300ms)`}); err != nil {
			t.Fatal(err)
		}
	}
	if n := steadyGoroutines() - base; n != 1 {
		t.Fatalf("%d queries behind one handler added %d goroutines, want 1 (one pump)", len(names), n)
	}
	for _, name := range names {
		if !a.dropQuery(name) {
			t.Fatalf("%s not registered", name)
		}
	}
	settleGoroutines(t, base)
}

// steadyGoroutines is the goroutine count once it has held still for a
// while: what earlier tests left behind has exited.
func steadyGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 20; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// TestAPIGroupsUnderConcurrentRegistration registers and deletes queries
// behind one handler on one source from many goroutines at once, with data
// flowing in between: every query ends up in a group, ingests everything
// published after it attached, and is flushed and gone after its DELETE,
// and the pumps are gone with the last of them (run it with -race).
func TestAPIGroupsUnderConcurrentRegistration(t *testing.T) {
	a, ts := apiTestApp(t, appConfig{batch: 8})
	src := a.fleet.Source("s6")
	base := steadyGoroutines()
	const text = `SELECT sum FROM s6 WINDOW 2s SLIDE 1s HANDLER kslack(300ms)`
	names := []string{"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"}
	register := func(names []string) {
		var wg sync.WaitGroup
		for _, name := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := a.registerQuery(registerRequest{Name: name, Tenant: "t1", CQL: text}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	items := sensorItems(2000, 91)
	register(names[:4])
	if err := src.PublishProv(items[:1000], stream.BatchProv{}); err != nil {
		t.Fatal(err)
	}
	register(names[4:])
	if err := src.PublishProv(items[1000:], stream.BatchProv{}); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		want := int64(len(items))
		if i >= 4 {
			want -= 1000
		}
		waitTuples(t, ts, name, want)
	}
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, _ := a.srv.get(name)
			if !a.dropQuery(name) {
				t.Errorf("%s not registered", name)
			}
			if q.healthState() != healthDone {
				t.Errorf("%s: health %s after DELETE, want done", name, q.healthState())
			}
		}()
	}
	wg.Wait()
	if n := src.Subscribers(); n != 0 {
		t.Fatalf("%d subscriptions left after every query was deleted", n)
	}
	ts.Client().CloseIdleConnections() // the status polls' keep-alive connections
	settleGoroutines(t, base)
}

// settleGoroutines waits for the goroutine count to come back down to base.
func settleGoroutines(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d still there 2s after:\n%s",
				base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupPanicIsolatedToMember: a panic in one member's window stage is
// that member's alone — counted in its stagePanics, its health degraded —
// while the members beside it in the group, fed by the same disorder pass,
// emit exactly what they would alone.
func TestGroupPanicIsolatedToMember(t *testing.T) {
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	items := sensorItems(6000, 81)
	choked := false
	choking := window.Factory{Name: "choke-once-sum", New: func() window.Aggregate {
		return &chokeOnceSum{Aggregate: window.Sum().New(), poison: items[2500].Tuple.Value, choked: &choked}
	}}
	b := fanout.New(fanout.Options{})
	var reg groupRegistry
	var members []*queryRunner
	for i, agg := range []window.Factory{window.Sum(), choking, window.Max()} {
		q, err := reg.place(runnerDef{name: []string{"calm-sum", "choke", "calm-max"}[i], spec: spec, agg: agg,
			handler: buffer.NewKSlack(400), log: slog.New(slog.NewTextHandler(io.Discard, nil))}, nil, b)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, q)
	}
	if members[1].grp != members[0].grp || members[2].grp != members[0].grp {
		t.Fatal("the three kslack(400) queries are not one group")
	}
	for i := 0; i < len(items); i += 128 {
		if err := b.Publish(context.Background(), append(b.Get(), items[i:min(i+128, len(items))]...)); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	<-members[0].grp.done

	if st := members[1].status(); st.Panics != 1 || st.Health != healthDone || !choked {
		t.Fatalf("choking member: panics %d health %s; want its one panic counted", st.Panics, st.Health)
	}
	for _, i := range []int{0, 2} {
		q := members[i]
		if st := q.status(); st.Panics != 0 {
			t.Fatalf("%s was charged %d panics of its neighbour", q.name, st.Panics)
		}
		want, err := cq.New(stream.NewSliceSource(items)).Handle(buffer.NewKSlack(400)).Window(spec, q.agg).Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.SameOutput(memberReport(t, q), want); err != nil {
			t.Fatalf("%s diverged from its plan run alone: %v", q.name, err)
		}
	}
}
