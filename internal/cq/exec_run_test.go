package cq

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/stream"
	"repro/internal/window"
)

// TestStepBatchingIsInvisible: a step's two passes — the whole batch into the
// handler first, what it released into the operator after — and the chunking
// of a long batch are implementation. Whatever the batch size, from one item
// (what Run steps) past the chunk bound, the report is Run's, field for
// field: every result with the EmitArrival its releasing item's clock gives
// it, the handler's and the operator's counters, the PreFlush boundary. The
// stream has heartbeats and arrival times that run backwards now and then
// (the arrival clock must not), and the handlers cover both disorder passes:
// the K-slack's batched one and the per-item one of everything else.
func TestStepBatchingIsInvisible(t *testing.T) {
	items := execItems(24_000, 41)
	for i := range items {
		if !items[i].Heartbeat {
			items[i].Tuple.Key = items[i].Tuple.Seq % 5
			if i%9 == 0 {
				items[i].Tuple.Arrival -= 700 // client-supplied on the wire: need not be monotone
			}
		}
	}
	handlers := map[string]func() buffer.Handler{
		"kslack":   func() buffer.Handler { return buffer.NewKSlack(800) },
		"maxslack": func() buffer.Handler { return buffer.NewMaxSlack() },
		"aq": func() buffer.Handler {
			return core.NewAQKSlack(core.Config{Theta: 0.02, Spec: testSpec, Agg: window.Sum(),
				WarmupTuples: 200, Estimator: core.EstimatorConfig{Seed: 5, ReservoirSize: 128, MCTrials: 4}})
		},
	}
	for name, mk := range handlers {
		for _, grouped := range []bool{false, true} {
			build := func(src stream.Source) *AggQuery {
				q := New(src).Handle(mk()).Window(testSpec, window.Sum())
				if grouped {
					q.GroupBy()
				}
				return q
			}
			want, err := build(stream.NewSliceSource(items)).Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Results)+len(want.Keyed) == 0 || want.Handler.Stragglers == 0 {
				t.Fatalf("%s: Run emitted %d results over %d stragglers; the comparison proves nothing",
					name, len(want.Results)+len(want.Keyed), want.Handler.Stragglers)
			}
			for _, size := range []int{1, 7, 64, 256, 4096, 10_000} {
				x, err := NewExec(build(nil), nil)
				if err != nil {
					t.Fatal(err)
				}
				batch := make([]stream.Item, 0, size)
				for rest := items; len(rest) > 0; {
					n := min(size, len(rest))
					batch = append(batch[:0], rest[:n]...)
					x.noteInput(batch)
					if err := x.Step(batch); err != nil {
						t.Fatal(err)
					}
					rest = rest[n:]
				}
				if err := x.Finish(); err != nil {
					t.Fatal(err)
				}
				if got := x.Report(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s, grouped %v, batches of %d: report differs from Run's: %d/%d results, handler %+v, op %+v, preflush %d; want %d/%d, %+v, %+v, %d",
						name, grouped, size, len(got.Results), len(got.Keyed), got.Handler, got.Op, got.PreFlush,
						len(want.Results), len(want.Keyed), want.Handler, want.Op, want.PreFlush)
				}
			}
		}
	}
}

// countingKSlack embeds a K-slack and overrides Insert. Method promotion
// gives it the K-slack's InsertBatch as well, which feeds the embedded buffer
// and never runs the override.
type countingKSlack struct {
	*buffer.KSlack
	tuples, heartbeats int
}

func (h *countingKSlack) Insert(it stream.Item, out []stream.Tuple) []stream.Tuple {
	if it.Heartbeat {
		h.heartbeats++
	} else {
		h.tuples++
	}
	return h.KSlack.Insert(it, out)
}

// TestExecBatchedPathIsByConcreteType: the disorder pass takes the batched
// path for a handler that is exactly a *buffer.KSlack, found by its concrete
// type. A handler that merely has the method — by embedding one — sees every
// item in its own Insert, traced or not.
func TestExecBatchedPathIsByConcreteType(t *testing.T) {
	items := execItems(3000, 43)
	wantBeats := 0
	for _, it := range items {
		if it.Heartbeat {
			wantBeats++
		}
	}
	for _, traced := range []bool{false, true} {
		h := &countingKSlack{KSlack: buffer.NewKSlack(300)}
		if _, promoted := buffer.Handler(h).(buffer.BatchHandler); !promoted {
			t.Fatal("test setup: the embedding handler does not inherit InsertBatch")
		}
		q := New(nil).Handle(h).Window(testSpec, window.Sum())
		if traced {
			q.Trace(tracez.New(tracez.NewRecorder(1<<10), "q"))
		}
		x, err := NewExec(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for rest := items; len(rest) > 0; rest = rest[min(256, len(rest)):] {
			if err := x.Step(rest[:min(256, len(rest))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Finish(); err != nil {
			t.Fatal(err)
		}
		if h.heartbeats != wantBeats || h.tuples != len(items)-wantBeats {
			t.Errorf("traced %v: the handler's own Insert saw %d tuples and %d heartbeats of %d and %d",
				traced, h.tuples, h.heartbeats, len(items)-wantBeats, wantBeats)
		}
		if got := x.Report().Handler.Inserted; got != int64(h.tuples) {
			t.Errorf("traced %v: %d tuples inserted, %d through the handler's own Insert", traced, got, h.tuples)
		}
	}
}

// TestExecSizeClass pins the Exec in the allocator's 320-byte size class.
// Growing it into the 352-byte class once pulled a GC mark phase into the
// server's registration path (+7…+20 % on aqbench's setup_s; CHANGES.md,
// PR 16), a knife edge nothing else guards. The work in flight sits behind a
// pointer for that reason.
func TestExecSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Exec{}); size > 320 {
		t.Fatalf("cq.Exec is %d bytes, over the 320-byte size class: move a field behind a pointer", size)
	}
}

// TestExecPanicBookkeeping pins the two things a driver reads after a panic
// that no report shows. The released counter: what a chunk's items released
// before a handler panic is counted, like everything else, by the sync of the
// Resume that carries on. And InFlight in the window pass: a foreign
// aggregate that chokes while window W is being emitted panics inside the
// tuple that closes W, and the item named is the one whose insertion released
// that tuple — checked against a K-slack fed the same items one by one.
func TestExecPanicBookkeeping(t *testing.T) {
	items := execItems(3000, 47)

	t.Run("released counter", func(t *testing.T) {
		poisoned := 1500
		for items[poisoned].Heartbeat {
			poisoned++
		}
		telem := NewTelemetry(obs.NewRegistry(), "q", testSpec)
		x, err := NewExec(New(nil).Handle(&chokingHandler{Handler: buffer.NewMaxSlack(), poison: items[poisoned].Tuple.Seq}).
			Window(testSpec, window.Sum()).Instrument(telem), nil)
		if err != nil {
			t.Fatal(err)
		}
		if stages, _ := stepIsolating(t, x, items); len(stages) != 1 {
			t.Fatalf("%d panics isolated, want the one injected", len(stages))
		}
		if got, want := telem.Released.Value(), float64(x.Report().Handler.Released); got != want || want == 0 {
			t.Fatalf("released counter %v, handler released %v", got, want)
		}
	})

	t.Run("in flight", func(t *testing.T) {
		// fusedSum's Value runs once per emitted window: the tenth panics.
		fuse := 10
		agg := window.Factory{Name: "fused-sum", New: func() window.Aggregate { return fusedSum{window.Sum().New(), &fuse} }}
		x, err := NewExec(New(nil).Handle(buffer.NewKSlack(500)).Window(testSpec, agg), nil)
		if err != nil {
			t.Fatal(err)
		}
		stages, hit := stepIsolating(t, x, items)
		if len(stages) != 1 || stages[0] != tracez.StageWindow {
			t.Fatalf("InFlight said %v; want exactly the one window-stage panic", stages)
		}
		choked := x.Report().Results[9]
		ref := buffer.NewKSlack(500)
		var want stream.Item
	find:
		for _, it := range items {
			for _, tu := range ref.Insert(it, nil) {
				if tu.TS >= choked.End {
					want = it
					break find
				}
			}
		}
		if hit[0] != want || want == (stream.Item{}) {
			t.Fatalf("InFlight named %v; the tuple that closes window %d was released by %v", hit[0], choked.Idx, want)
		}
	})
}
