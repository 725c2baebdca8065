package cq

import (
	"reflect"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// sharedShape is one query of a shared disorder pass, with the recorder and
// telemetry its run writes to.
type sharedShape struct {
	spec    window.Spec
	agg     window.Factory
	grouped bool
	rec     *tracez.Recorder
	telem   *Telemetry
}

func (s *sharedShape) query(h buffer.Handler) *AggQuery {
	s.rec = tracez.NewRecorder(1 << 15)
	s.telem = NewTelemetry(obs.NewRegistry(), "q", s.spec)
	q := New(nil).Handle(h).Window(s.spec, s.agg).Trace(tracez.New(s.rec, "q")).Instrument(s.telem)
	if s.grouped {
		q.GroupBy()
	}
	return q
}

// readings is every instrument of t, read once.
func readings(t *Telemetry) [11]float64 {
	return [11]float64{
		t.SourceIn.Value(), t.Heartbeats.Value(), t.Shed.Value(), t.Released.Value(),
		t.Stragglers.Value(), t.Results.Value(), t.K.Value(), t.Depth.Value(),
		float64(t.IngestBatch.Count()), float64(t.EmitLatency.Count()), t.EmitLatency.Sum(),
	}
}

func sharedShapes() []*sharedShape {
	sec := stream.Second
	return []*sharedShape{
		{spec: window.Spec{Size: sec, Slide: sec}, agg: window.Sum()},
		{spec: window.Spec{Size: 60 * sec, Slide: sec}, agg: window.Max()},
		{spec: window.Spec{Size: 10 * sec, Slide: sec}, agg: window.Quantile(0.95)},
		{spec: window.Spec{Size: 10 * sec, Slide: sec}, agg: window.Count(), grouped: true},
	}
}

// TestSharedStagesReadAsAlone: queries joined to one Exec, stepped in
// batches of any size, one of them leaving mid-stream, each read as the same
// query run alone over the same items — report field for field, flight
// recorder event for event (buffer events included), every instrument of its
// telemetry — for every handler kind that shares.
func TestSharedStagesReadAsAlone(t *testing.T) {
	items := execItems(8000, 91)
	for i := range items {
		if !items[i].Heartbeat {
			items[i].Tuple.Key = items[i].Tuple.Seq % 7
		}
	}
	leaveAt := 5000
	handlers := map[string]func() buffer.Handler{
		"kslack":     func() buffer.Handler { return buffer.NewKSlack(800) },
		"maxslack":   func() buffer.Handler { return buffer.NewMaxSlack() },
		"percentile": func() buffer.Handler { return buffer.NewPercentile(0.9, 100) },
		"punctuated": func() buffer.Handler { return buffer.NewPunctuated() },
	}
	for name, mk := range handlers {
		t.Run(name, func(t *testing.T) {
			alone, shared := sharedShapes(), sharedShapes()
			var x *Exec
			for i, s := range shared {
				q := s.query(mk())
				if i == 0 {
					var err error
					if x, err = NewExec(q, nil); err != nil {
						t.Fatal(err)
					}
				} else if _, err := x.Join(q, nil); err != nil {
					t.Fatal(err)
				}
			}
			leaving := x.Stages()[1]
			aloneReports := make([]*AggReport, len(alone))
			for i, s := range alone {
				a, err := NewExec(s.query(mk()), nil)
				if err != nil {
					t.Fatal(err)
				}
				// The same steps as the shared run's (the flight recorder
				// syncs the handler per step); the one that leaves ends there.
				stepAll(t, a, items[:leaveAt], stats.NewRNG(2), 300)
				if i != 1 {
					stepAll(t, a, items[leaveAt:], stats.NewRNG(3), 300)
				}
				if err := a.Finish(); err != nil {
					t.Fatal(err)
				}
				aloneReports[i] = a.Report()
			}
			stepAll(t, x, items[:leaveAt], stats.NewRNG(2), 300)
			if err := x.Leave(leaving); err != nil {
				t.Fatal(err)
			}
			stepAll(t, x, items[leaveAt:], stats.NewRNG(3), 300)
			if err := x.Finish(); err != nil {
				t.Fatal(err)
			}
			reports := []*AggReport{x.Stages()[0].Report(), leaving.Report(), x.Stages()[1].Report(), x.Stages()[2].Report()}
			for i := range shared {
				if got, want := reports[i], aloneReports[i]; !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: report diverged from its run alone:\n got %d results %d keyed, handler %+v, op %+v, preflush %d\nwant %d, %d, %+v, %+v, %d",
						i, len(got.Results), len(got.Keyed), got.Handler, got.Op, got.PreFlush,
						len(want.Results), len(want.Keyed), want.Handler, want.Op, want.PreFlush)
				}
				if got, want := shared[i].rec.Events(), alone[i].rec.Events(); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: %d trace events, alone %d (or they differ)", i, len(got), len(want))
				}
				if got, want := readings(shared[i].telem), readings(alone[i].telem); got != want {
					t.Fatalf("query %d: telemetry %v, alone %v", i, got, want)
				}
			}
		})
	}
}

// opaqueHandler wraps a handler in a type the executor does not know, whose
// releases may therefore depend on anything.
type opaqueHandler struct{ buffer.Handler }

// TestJoinRefusesWhatCannotShare: a query whose releases depend on more than
// the stream — an adaptive handler, a journal — or whose handler is
// not where the pass's is, gets a step core of its own.
func TestJoinRefusesWhatCannotShare(t *testing.T) {
	spec := testSpec
	mk := func(h buffer.Handler) *AggQuery { return New(nil).Handle(h).Window(spec, window.Sum()) }
	x, err := NewExec(mk(buffer.NewKSlack(500)), nil)
	if err != nil {
		t.Fatal(err)
	}
	aq := core.NewAQKSlack(core.Config{Theta: 0.01, Spec: spec, Agg: window.Sum()})
	log := mustOpenLog(t, durable.Options{Dir: t.TempDir()})
	defer log.Close()
	for what, q := range map[string]*AggQuery{
		"adaptive":      mk(aq),
		"other K":       mk(buffer.NewKSlack(400)),
		"durable":       mk(buffer.NewKSlack(500)).Durable(Durable{Log: log}),
		"wrapped":       mk(opaqueHandler{buffer.NewKSlack(500)}),
		"other kind":    mk(buffer.NewMaxSlack()),
		"no window":     New(nil).Handle(buffer.NewKSlack(500)),
		"with a source": New(stream.NewSliceSource(nil)).Handle(buffer.NewKSlack(500)).Window(spec, window.Sum()),
	} {
		if _, err := x.Join(q, nil); err == nil {
			t.Errorf("%s: joined", what)
		}
	}
	if _, err := x.Join(mk(buffer.NewKSlack(500)), nil); err != nil {
		t.Fatalf("a fresh kslack(500) query cannot join a fresh kslack(500) pass: %v", err)
	}
	if err := x.Step(execItems(10, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Join(mk(buffer.NewKSlack(500)), nil); err == nil {
		t.Fatal("a fresh query joined a pass whose handler has seen items")
	}
	if ShareKey(mk(nil)) != ShareKey(mk(buffer.NewKSlack(0))) || ShareKey(mk(nil)) == "" {
		t.Fatal("the default handler and kslack(0) do not share")
	}
	if ShareKey(mk(buffer.NewPercentile(0.9, 100))) == ShareKey(mk(buffer.NewPercentile(0.9, 500))) {
		t.Fatal("percentile handlers with different cadences share")
	}
}

// TestSharedPanicCostsOneStage: a panic in one stage's window pass is
// charged to that stage (InFlightStage) and costs it the result in flight;
// the stages beside it, before and after it in the pass, read as alone.
func TestSharedPanicCostsOneStage(t *testing.T) {
	items := execItems(4000, 97)
	mk := func() *AggQuery { return New(nil).Handle(buffer.NewKSlack(500)).Window(testSpec, window.Sum()) }
	alone, err := NewExec(mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stepAll(t, alone, items, stats.NewRNG(1), 1)
	if err := alone.Finish(); err != nil {
		t.Fatal(err)
	}
	want := alone.Report()

	seen := 0
	x, err := NewExec(mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	choking, err := x.Join(mk(), func(window.Result) {
		if seen++; seen == 10 {
			panic("poisoned result")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Join(mk(), nil); err != nil {
		t.Fatal(err)
	}
	var hit []*Stage
	run := func(f func()) (completed bool) {
		defer func() {
			if p := recover(); p != nil {
				hit = append(hit, x.InFlightStage())
			}
		}()
		f()
		return true
	}
	for rest := items; len(rest) > 0; {
		batch := rest[:min(256, len(rest))]
		rest = rest[len(batch):]
		if !run(func() {
			if err := x.Step(batch); err != nil {
				t.Error(err)
			}
		}) {
			for !run(x.Resume) {
			}
		}
	}
	if err := x.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(hit) != 1 || hit[0] != choking {
		t.Fatalf("InFlightStage named %v; want the choking stage once", hit)
	}
	stages := x.Stages()
	for _, i := range []int{0, 2} {
		if got := stages[i].Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("stage %d: report diverged from its run alone (%d results, want %d)", i, len(got.Results), len(want.Results))
		}
	}
	if got := choking.Report(); got.Op != want.Op || len(got.Results) != len(want.Results) {
		t.Fatalf("the choking stage lost more than the result in flight: op %+v, %d results; alone %+v, %d",
			got.Op, len(got.Results), want.Op, len(want.Results))
	}
}
