package cq

import (
	"context"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs/tracez"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/window"
)

// traceRun executes one traced synchronous run over tuples and returns
// the recorded events.
func traceRun(t *testing.T, tuples []stream.Tuple) []tracez.Event {
	t.Helper()
	rec := tracez.NewRecorder(1 << 15)
	tr := tracez.New(rec, "trace-test")
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	_, err := New(stream.FromTuples(tuples)).
		Handle(core.NewAQKSlack(core.Config{Theta: 0.01, Spec: spec, Agg: window.Sum()})).
		Window(spec, window.Sum()).
		Trace(tr).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// provenanceFor returns the newest retained provenance record for window
// win.
func provenanceFor(tr *tracez.Tracer, win int64) (tracez.Provenance, bool) {
	ps := tr.Provenances()
	for i := len(ps) - 1; i >= 0; i-- {
		if ps[i].Win == win {
			return ps[i], true
		}
	}
	return tracez.Provenance{}, false
}

// TestTraceSyncDeterministic replays the same input through the
// synchronous executor twice and requires bit-identical traces: events
// carry stream-time positions only, so the digest must not move.
func TestTraceSyncDeterministic(t *testing.T) {
	tuples := gen.SensorBursty(20000, 3).Arrivals()
	d1 := tracez.Digest(traceRun(t, tuples))
	d2 := tracez.Digest(traceRun(t, tuples))
	if d1 == "" || d1 != d2 {
		t.Fatalf("trace digest not replay-stable: %q vs %q", d1, d2)
	}
}

// TestTraceSyncCoverage checks that one adaptive sync run leaves the
// full event family in the recorder: source-side inserts and releases,
// controller adaptations, quality samples, emits and the final flush.
func TestTraceSyncCoverage(t *testing.T) {
	events := traceRun(t, gen.SensorBursty(20000, 3).Arrivals())
	kinds := map[tracez.Kind]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	for _, k := range []tracez.Kind{
		tracez.KindInsert, tracez.KindRelease, tracez.KindKSet,
		tracez.KindKAdapt, tracez.KindQuality, tracez.KindEmit, tracez.KindFlush,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %s events recorded", k)
		}
	}
}

// TestTraceConcurrentEmits cross-checks the traced concurrent engine
// against its own report: every emitted result must appear as a
// KindEmit event with matching window provenance fields.
func TestTraceConcurrentEmits(t *testing.T) {
	tuples := gen.Sensor(20000, 11).Arrivals()
	rec := tracez.NewRecorder(1 << 16)
	tr := tracez.New(rec, "emit-test")
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	rep, err := New(stream.FromTuples(tuples)).
		Handle(buffer.NewKSlack(500)).
		Window(spec, window.Sum()).
		Trace(tr).
		RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	emits := 0
	for _, ev := range rec.Events() {
		if ev.Kind == tracez.KindEmit {
			emits++
		}
	}
	if emits != len(rep.Results) {
		t.Errorf("emit events = %d, want %d (report results)", emits, len(rep.Results))
	}
	if len(rep.Results) == 0 {
		t.Fatal("no results emitted")
	}
	last := rep.Results[len(rep.Results)-1]
	p, ok := provenanceFor(tr, last.Idx)
	if !ok {
		t.Fatalf("no provenance for window %d", last.Idx)
	}
	if p.Count != last.Count || p.Start != int64(last.Start) || p.End != int64(last.End) {
		t.Errorf("provenance %+v does not match result %+v", p, last)
	}
}

// TestTraceWatchdogViolation injects delay-spike chaos into an adaptive
// query whose watchdog bound is effectively zero, and requires the
// quality-SLO machinery to fire end to end: the watchdog counts a
// violation, the tracer auto-dumps, and the dump names the violating
// window with its provenance (contributing count and K at seal).
func TestTraceWatchdogViolation(t *testing.T) {
	tuples := gen.Sensor(20000, 7).Arrivals()
	src := resilience.NewFaultSource(
		stream.AsErrSource(stream.FromTuples(tuples)),
		resilience.Chaos{Seed: 7, SpikeRate: 0.01, SpikeLen: 100},
	)
	rec := tracez.NewRecorder(1 << 15)
	tr := tracez.New(rec, "wd-test")
	wd := tracez.NewWatchdog(1e-9, nil)
	tr.SetWatchdog(wd)
	var dumps []tracez.Dump
	tr.OnDump(func(d tracez.Dump) { dumps = append(dumps, d) })

	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	_, err := NewFallible(src).
		Handle(core.NewAQKSlack(core.Config{Theta: 0.01, Spec: spec, Agg: window.Sum()})).
		Window(spec, window.Sum()).
		Trace(tr).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if wd.Violations() == 0 {
		t.Fatal("watchdog observed no violations under spike chaos")
	}
	if len(dumps) == 0 {
		t.Fatal("no flight-recorder dump on quality violation")
	}
	// The watchdog dumps once per violation start; the last dump names the
	// window that started it.
	d := dumps[len(dumps)-1]
	if d.Reason != "quality-violation" {
		t.Errorf("dump reason = %q, want quality-violation", d.Reason)
	}
	p, ok := provenanceFor(tr, d.Win)
	if !ok {
		t.Fatalf("violating window %d has no provenance", d.Win)
	}
	if p.Count <= 0 || p.KAtSeal < 0 {
		t.Errorf("provenance lacks seal state: %+v", p)
	}
	violNamed := false
	for _, ev := range d.Events {
		if ev.Kind == tracez.KindViolation && ev.Win == d.Win {
			violNamed = true
			if ev.V <= 0 {
				t.Errorf("violation event's realized error = %g, want > 0", ev.V)
			}
		}
	}
	if !violNamed {
		t.Errorf("dump does not contain a violation event naming window %d", d.Win)
	}
}

// TestLatencyBucketsFor checks the derived histogram ladder: strictly
// increasing, anchored below the slide, and reaching past the window
// size so straggler-dominated latencies still resolve.
func TestLatencyBucketsFor(t *testing.T) {
	spec := window.Spec{Size: 60 * stream.Second, Slide: 10 * stream.Second}
	b := LatencyBucketsFor(spec)
	if len(b) != 20 {
		t.Fatalf("got %d buckets, want 20", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not strictly increasing at %d: %v", i, b)
		}
	}
	if b[0] > float64(spec.Slide) {
		t.Errorf("first bucket %g above the slide %d", b[0], spec.Slide)
	}
	if last := b[len(b)-1]; last < 2*float64(spec.Size) {
		t.Errorf("last bucket %g below 2x window size", last)
	}
	// Tiny windows must still produce a sane ladder starting at >= 1.
	small := LatencyBucketsFor(window.Spec{Size: 4, Slide: 2})
	if small[0] < 1 {
		t.Errorf("small-window ladder starts below 1: %g", small[0])
	}
	if small[len(small)-1] < 16 {
		t.Errorf("small-window ladder tops out at %g, want >= 16x the floor", small[len(small)-1])
	}
}

// bufferEvents is the recorder's disorder-buffer events.
func bufferEvents(rec *tracez.Recorder) []tracez.Event {
	var out []tracez.Event
	for _, ev := range rec.Events() {
		if ev.Stage == tracez.StageBuffer {
			out = append(out, ev)
		}
	}
	return out
}

// bufferTraceExec is a traced K-slack (K = 4) count query over tumbling
// windows of 5, recording into rec. step runs one Step and returns the
// buffer events it recorded; onSink, if set, runs at each window result
// emitted inside a step.
func bufferTraceExec(t *testing.T, rec *tracez.Recorder, onSink func()) (x *Exec, step func(...stream.Item) []tracez.Event) {
	t.Helper()
	stepping, synced := false, 0
	sink := func(window.Result) {
		if stepping && onSink != nil {
			onSink()
		}
	}
	x, err := NewExec(New(nil).Handle(buffer.NewKSlack(4)).
		Window(window.Spec{Size: 5, Slide: 5}, window.Count()).
		Trace(tracez.New(rec, "q")), sink)
	if err != nil {
		t.Fatal(err)
	}
	step = func(items ...stream.Item) []tracez.Event {
		t.Helper()
		stepping = true
		if err := x.Step(items); err != nil {
			t.Fatal(err)
		}
		stepping = false
		evs := bufferEvents(rec)
		defer func() { synced = len(evs) }()
		return evs[synced:]
	}
	return x, step
}

func dataAt(ts stream.Time, seq uint64) stream.Item {
	return stream.DataItem(stream.Tuple{TS: ts, Arrival: ts, Seq: seq})
}

// TestExecBufferTraceMirrorsHandler: the executor records the disorder
// buffer's activity at each step's sync — one event per non-zero delta of
// the handler's cumulative stats, N = the count, at the event-time clock,
// plus the slack on the first sync. The events sum to the handler's stats,
// and none is stamped beyond the largest event time inserted.
func TestExecBufferTraceMirrorsHandler(t *testing.T) {
	rec := tracez.NewRecorder(1 << 10)
	x, step := bufferTraceExec(t, rec, nil)

	// 3 inserted, 2 released (TS 10 and 12 are behind 30−K), and the
	// initial slack, at the event-time clock 30.
	first := step(dataAt(10, 0), dataAt(12, 1), dataAt(30, 2))
	want := []tracez.Event{
		{At: 30, Kind: tracez.KindInsert, N: 3},
		{At: 30, Kind: tracez.KindRelease, N: 2},
		{At: 30, Kind: tracez.KindKSet, K: 4},
	}
	if len(first) != len(want) {
		t.Fatalf("first sync recorded %+v, want %+v", first, want)
	}
	for i, ev := range first {
		if w := want[i]; ev.At != w.At || ev.Kind != w.Kind || ev.N != w.N || ev.K != w.K {
			t.Errorf("first sync event %d = %+v, want %+v", i, ev, w)
		}
	}
	// A straggler (TS 8 is behind the released 12), then a tuple that
	// releases TS 30.
	step(stream.DataItem(stream.Tuple{TS: 8, Arrival: 31, Seq: 3}))
	step(dataAt(40, 4))
	if err := x.Finish(); err != nil {
		t.Fatal(err)
	}

	st := x.Report().Handler
	n := map[tracez.Kind]int64{}
	for _, ev := range bufferEvents(rec) {
		n[ev.Kind] += ev.N
		if ev.At > 40 {
			t.Errorf("event %+v stamped beyond the largest event time 40", ev)
		}
	}
	if st.Inserted != 5 || st.Released != 5 || st.Stragglers != 1 {
		t.Fatalf("handler stats %+v, want 5 inserted and released, 1 straggler", st)
	}
	if n[tracez.KindInsert] != st.Inserted || n[tracez.KindRelease] != st.Released || n[tracez.KindStraggler] != st.Stragglers {
		t.Errorf("events sum to %v, handler stats %+v", n, st)
	}
}

// TestExecBufferTraceSyncsOnDemand: buffer events are recorded at a step's
// sync and only there — nothing while the step is still running (checked
// from the sink, which runs inside the step) — and a step with nothing new
// records nothing.
func TestExecBufferTraceSyncsOnDemand(t *testing.T) {
	rec := tracez.NewRecorder(1 << 10)
	synced, sinkCalls := 0, 0
	x, step := bufferTraceExec(t, rec, func() {
		sinkCalls++
		if n := len(bufferEvents(rec)); n != synced {
			t.Errorf("%d buffer events inside a step, %d at the last sync", n, synced)
		}
	})
	record := func(items ...stream.Item) []tracez.Event {
		t.Helper()
		evs := step(items...)
		synced = len(bufferEvents(rec))
		return evs
	}

	if evs := record(dataAt(10, 0), dataAt(12, 1), dataAt(30, 2)); len(evs) == 0 {
		t.Fatal("a step that inserted tuples recorded nothing")
	}
	if evs := record(); len(evs) != 0 {
		t.Errorf("a step with nothing new recorded %+v", evs)
	}
	// A tuple that releases TS 30 and closes windows: the sink runs inside
	// the step.
	record(dataAt(40, 3))
	if sinkCalls == 0 {
		t.Fatal("no window closed inside a step: the between-syncs check proved nothing")
	}
	if evs := record(); len(evs) != 0 {
		t.Errorf("a step with nothing new recorded %+v", evs)
	}
	if err := x.Finish(); err != nil {
		t.Fatal(err)
	}
}
