package cq

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// execItems is a disordered sensor stream with heartbeats: both item kinds
// move the arrival clock.
func execItems(n int, seed uint64) []stream.Item {
	return stream.Collect(stream.NewWithHeartbeats(gen.Sensor(n, seed).Source(), stream.Second))
}

// stepAll feeds items to x in batches whose sizes rng draws from [1, max]
// (max 1: one item per step) and finishes the stream.
func stepAll(t *testing.T, x *Exec, items []stream.Item, rng *stats.RNG, max int) {
	t.Helper()
	for len(items) > 0 {
		n := 1 + rng.Intn(max)
		if n > len(items) {
			n = len(items)
		}
		if err := x.Step(items[:n]); err != nil {
			t.Fatal(err)
		}
		items = items[n:]
	}
}

// execState is everything a snapshot would capture, as comparable JSON.
func execState(t *testing.T, x *Exec) string {
	t.Helper()
	hs, err := durable.SaveHandler(x.Handler())
	if err != nil {
		t.Fatal(err)
	}
	op := x.stages[0].op
	emit, have := op.EmitProgress()
	b, err := json.Marshal(struct {
		Handler *durable.HandlerState
		Op      window.OpState
		Emit    int64
		Have    bool
		Now     stream.Time
	}{hs, op.State(), emit, have, x.Now()})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestExecBatchSplitInvariance is the core's own contract: how a driver
// cuts the item sequence into Step batches changes nothing — not the
// results, not the report, not the state a snapshot would save, not the
// emission cursor — for every snapshot-capable handler. (The subtests keep
// the "/fiba" suffix they had when a second aggregation core existed.)
func TestExecBatchSplitInvariance(t *testing.T) {
	items := execItems(6000, 17)
	handlers := map[string]func() buffer.Handler{
		"kslack":     func() buffer.Handler { return buffer.NewKSlack(800) },
		"maxslack":   func() buffer.Handler { return buffer.NewMaxSlack() },
		"percentile": func() buffer.Handler { return buffer.NewPercentile(0.95, 64) },
		"aq": func() buffer.Handler {
			return core.NewAQKSlack(core.Config{Theta: 0.02, Spec: testSpec, Agg: window.Sum(),
				WarmupTuples: 200, Estimator: core.EstimatorConfig{Seed: 5, ReservoirSize: 128, MCTrials: 4}})
		},
	}
	for name, mk := range handlers {
		t.Run(name+"/fiba", func(t *testing.T) {
			build := func() *Exec {
				x, err := NewExec(New(nil).Handle(mk()).Window(testSpec, window.Sum()), nil)
				if err != nil {
					t.Fatal(err)
				}
				return x
			}
			ref := build()
			stepAll(t, ref, items, stats.NewRNG(1), 1)
			// Mid-stream state first (a snapshot is cut mid-stream), then
			// the finished report.
			refState := execState(t, ref)
			if err := ref.Finish(); err != nil {
				t.Fatal(err)
			}
			want := ref.Report()
			if len(want.Results) == 0 {
				t.Fatal("reference emitted nothing; the comparison proves nothing")
			}
			for seed := uint64(2); seed < 6; seed++ {
				x := build()
				stepAll(t, x, items, stats.NewRNG(seed), 300)
				if got := execState(t, x); got != refState {
					t.Fatalf("split seed %d: snapshot state diverged from one-item steps", seed)
				}
				if err := x.Finish(); err != nil {
					t.Fatal(err)
				}
				if got := x.Report(); !reflect.DeepEqual(got, want) {
					t.Fatalf("split seed %d: report diverged:\n got %d results, handler %+v, op %+v, preflush %d\nwant %d results, handler %+v, op %+v, preflush %d",
						seed, len(got.Results), got.Handler, got.Op, got.PreFlush,
						len(want.Results), want.Handler, want.Op, want.PreFlush)
				}
			}
		})
	}
}

// TestExecCrashInTheMiddle drives the core directly through a crash: step
// some batches, group-commit, die; a new Exec over the reopened log
// recovers and takes the rest. What the two processes delivered,
// concatenated, is exactly the uninterrupted run — nothing lost, nothing
// twice.
func TestExecCrashInTheMiddle(t *testing.T) {
	items := execItems(5000, 23)
	build := func(log *durable.QueryLog, sink func(window.Result)) *Exec {
		q := New(nil).Handle(buffer.NewKSlack(1500)).Window(testSpec, window.Sum())
		if log != nil {
			q.Durable(Durable{Log: log})
		}
		x, err := NewExec(q, sink)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	full := build(nil, nil)
	stepAll(t, full, items, stats.NewRNG(1), 97)
	if err := full.Finish(); err != nil {
		t.Fatal(err)
	}
	want := full.Report().Results

	for _, cut := range []int{700, 2600, 4400} {
		opts := durable.Options{Dir: t.TempDir(), CommitEvery: 64, SnapshotEvery: 900}
		var delivered []window.Result
		sink := func(r window.Result) { delivered = append(delivered, r) }

		log := mustOpenLog(t, opts)
		stepAll(t, build(log, sink), items[:cut], stats.NewRNG(uint64(cut)), 97)
		if err := log.Commit(); err != nil { // the crash lands right after a group commit
			t.Fatal(err)
		}
		log.Abandon()
		before := len(delivered)

		log2 := mustOpenLog(t, opts)
		x := build(log2, sink)
		rec := x.Report().Recovery
		if rec == nil || rec.ReplayedItems == 0 {
			t.Fatalf("cut %d: nothing recovered: %+v", cut, rec)
		}
		if cut > 900 && !rec.FromSnapshot {
			t.Fatalf("cut %d: recovery ignored the snapshot", cut)
		}
		// The journal suffix is pending: a driver replays it with Resume, or
		// leaves it to the first Step (cut 2600).
		if cut != 2600 {
			x.Resume()
		}
		if len(delivered) != before {
			t.Fatalf("cut %d: recovery re-delivered %d results the dead process had already delivered durably",
				cut, len(delivered)-before)
		}
		stepAll(t, x, items[cut:], stats.NewRNG(uint64(cut)+1), 97)
		if err := x.Finish(); err != nil {
			t.Fatal(err)
		}
		log2.Close()
		if !reflect.DeepEqual(delivered, want) {
			t.Fatalf("cut %d: two processes delivered %d results, uninterrupted run %d (or they differ)",
				cut, len(delivered), len(want))
		}
		if got := x.Report(); got.Handler != full.Report().Handler || got.Op != full.Report().Op {
			t.Fatalf("cut %d: recovered stats diverged from the uninterrupted run", cut)
		}
	}
}

// TestExecCrashWithInfiniteWindow: a max window holding +Inf (and a tuple
// of -Inf buffered beside it) is written to every snapshot — JSON has no
// such numbers, so they go as strings — and a crash recovered from one
// continues bit for bit. A snapshot that could not be written used to fail
// every snapshot of the query from then on.
func TestExecCrashWithInfiniteWindow(t *testing.T) {
	items := execItems(4000, 59)
	for i, v := range map[int]float64{700: math.Inf(1), 1700: math.Inf(-1), 2700: math.Inf(1)} {
		for items[i].Heartbeat {
			i++
		}
		items[i].Tuple.Value = v
	}
	build := func(log *durable.QueryLog, sink func(window.Result)) *Exec {
		q := New(nil).Handle(buffer.NewKSlack(1500)).Window(testSpec, window.Max())
		if log != nil {
			q.Durable(Durable{Log: log})
		}
		x, err := NewExec(q, sink)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	var want []window.Result
	full := build(nil, func(r window.Result) { want = append(want, r) })
	stepAll(t, full, items, stats.NewRNG(1), 97)
	if err := full.Finish(); err != nil {
		t.Fatal(err)
	}

	opts := durable.Options{Dir: t.TempDir(), CommitEvery: 64, SnapshotEvery: 900}
	var got []window.Result
	sink := func(r window.Result) { got = append(got, r) }
	log := mustOpenLog(t, opts)
	stepAll(t, build(log, sink), items[:3100], stats.NewRNG(2), 97) // fails on a snapshot that cannot be written
	if err := log.Commit(); err != nil {
		t.Fatal(err)
	}
	log.Abandon()
	snaps, err := filepath.Glob(filepath.Join(opts.Dir, "snap-*.json"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot written (%v)", err)
	}
	data, err := os.ReadFile(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"+Inf"`) {
		t.Fatalf("the last snapshot holds no +Inf: the test proves nothing")
	}

	log2 := mustOpenLog(t, opts)
	defer log2.Close()
	x := build(log2, sink)
	if rec := x.Report().Recovery; rec == nil || !rec.FromSnapshot {
		t.Fatalf("recovery did not start from the snapshot: %+v", rec)
	}
	stepAll(t, x, items[3100:], stats.NewRNG(3), 97)
	if err := x.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("two processes delivered %d results, the uninterrupted run %d (or they differ)", len(got), len(want))
	}
	if g, w := x.Report().Handler, full.Report().Handler; g != w {
		t.Fatalf("recovered handler stats %+v, uninterrupted %+v", g, w)
	}
}

// TestExecRefusesUnrestorableSnapshot: a snapshot whose operator state cannot
// be restored faithfully — the per-window partials of the removed
// per-window-fold core under "open", or a tree shape that does not fit its
// entries — fails NewExec with an error naming the remedy. It is never a
// query that starts with its open windows silently empty; that holds for
// the adaptive handler's shadow operator too.
func TestExecRefusesUnrestorableSnapshot(t *testing.T) {
	items := execItems(3000, 37)
	handlers := map[string]func() buffer.Handler{
		"kslack": func() buffer.Handler { return buffer.NewKSlack(1500) },
		"aq": func() buffer.Handler {
			return core.NewAQKSlack(core.Config{Theta: 0.02, Spec: testSpec, Agg: window.Sum(), WarmupTuples: 200})
		},
	}
	for name, mk := range handlers {
		for _, damage := range []string{"legacy open windows", "malformed shape"} {
			opts := durable.Options{Dir: t.TempDir(), CommitEvery: 64, SnapshotEvery: 900}
			build := func(log *durable.QueryLog) (*Exec, error) {
				return NewExec(New(nil).Handle(mk()).Window(testSpec, window.Sum()).Durable(Durable{Log: log}), nil)
			}
			log := mustOpenLog(t, opts)
			x, err := build(log)
			if err != nil {
				t.Fatal(err)
			}
			stepAll(t, x, items, stats.NewRNG(3), 97)
			if err := log.Commit(); err != nil {
				t.Fatal(err)
			}
			log.Abandon()

			snaps, err := filepath.Glob(filepath.Join(opts.Dir, "snap-*.json"))
			if err != nil || len(snaps) == 0 {
				t.Fatalf("%s: no snapshot written (%v)", name, err)
			}
			for _, path := range snaps {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// The first "tree" in the file is the handler's shadow
				// operator for aq, the query's operator for kslack.
				var bad string
				if damage == "malformed shape" {
					bad = strings.Replace(string(data), `"shape":{"leaves":[`, `"shape":{"leaves":[1,`, 1)
				} else {
					bad = strings.Replace(string(data), `"tree":[`, `"open":[{"idx":1,"agg":{"n":1,"nums":[1,0]}}],"tree":[`, 1)
				}
				if bad == string(data) {
					t.Fatalf("%s: test setup: %s holds no operator tree to damage", name, path)
				}
				if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			log2 := mustOpenLog(t, opts)
			_, err = build(log2)
			log2.Close()
			if err == nil || !strings.Contains(err.Error(), "clear the query's durable directory") {
				t.Errorf("%s, %s: NewExec returned %v; want a refusal naming the remedy", name, damage, err)
			}
		}
	}
}

// chokingHandler panics on one tuple before its handler sees it.
type chokingHandler struct {
	buffer.Handler
	poison uint64 // Seq
}

func (h *chokingHandler) Insert(it stream.Item, out []stream.Tuple) []stream.Tuple {
	if !it.Heartbeat && it.Tuple.Seq == h.poison {
		panic("poisoned tuple")
	}
	return h.Handler.Insert(it, out)
}

// stepIsolating steps items in batches of 256 the way a panic-isolating
// driver does — recover, read InFlight, Resume — and returns what InFlight
// said at each panic.
func stepIsolating(t *testing.T, x *Exec, items []stream.Item) (stages []tracez.Stage, hit []stream.Item) {
	t.Helper()
	run := func(f func()) (completed bool) {
		defer func() {
			if p := recover(); p != nil {
				stage, it := x.InFlight()
				stages, hit = append(stages, stage), append(hit, it)
			}
		}()
		f()
		return true
	}
	for len(items) > 0 {
		batch := items[:min(256, len(items))]
		items = items[len(batch):]
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
	return stages, hit
}

// TestExecResumeBehindPanic is the core half of panic isolation: a panic
// inside Step, in either stage, costs the item in flight and nothing else.
// In the disorder stage (a handler that chokes on one tuple) that is exact:
// the run equals one that never saw the tuple. In the window stage (here:
// the sink, on one result) the handler has already absorbed the item, so
// the cost is bounded by what that one insertion released — not the rest of
// the batch behind it.
func TestExecResumeBehindPanic(t *testing.T) {
	items := execItems(3000, 29)
	mk := func(h buffer.Handler, sink func(window.Result)) *Exec {
		x, err := NewExec(New(nil).Handle(h).Window(testSpec, window.Sum()), sink)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}

	t.Run("disorder", func(t *testing.T) {
		poisoned := 1500
		for items[poisoned].Heartbeat {
			poisoned++
		}
		ref := mk(buffer.NewKSlack(500), nil)
		without := append(append([]stream.Item{}, items[:poisoned]...), items[poisoned+1:]...)
		stepAll(t, ref, without, stats.NewRNG(1), 1)
		if err := ref.Finish(); err != nil {
			t.Fatal(err)
		}
		x := mk(&chokingHandler{Handler: buffer.NewKSlack(500), poison: items[poisoned].Tuple.Seq}, nil)
		stages, hit := stepIsolating(t, x, items)
		if len(stages) != 1 || stages[0] != tracez.StageBuffer || hit[0] != items[poisoned] {
			t.Fatalf("InFlight said %v %v; want one buffer-stage panic on %v", stages, hit, items[poisoned])
		}
		if got, want := x.Report(), ref.Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("a handler panic cost more than its item: %d results, handler %+v, op %+v; without the item %d, %+v, %+v",
				len(got.Results), got.Handler, got.Op, len(want.Results), want.Handler, want.Op)
		}
	})

	t.Run("window", func(t *testing.T) {
		ref := mk(buffer.NewKSlack(500), nil)
		stepAll(t, ref, items, stats.NewRNG(1), 1)
		if err := ref.Finish(); err != nil {
			t.Fatal(err)
		}
		seen, atRisk := 0, 0
		var x *Exec
		var got []window.Result
		x = mk(buffer.NewKSlack(500), func(res window.Result) {
			if seen++; seen == 10 {
				// The released tuples of the run in flight behind the one that
				// closed this window: the operator has them, their results are
				// still to be delivered.
				nows := x.rel.nows
				atRisk = len(nows) - sort.Search(len(nows), func(i int) bool { return nows[i] > res.EmitArrival })
				panic("poisoned result")
			}
			got = append(got, res)
		})
		stages, _ := stepIsolating(t, x, items)
		if len(stages) != 1 || stages[0] != tracez.StageWindow {
			t.Fatalf("InFlight said %v; want exactly the injected window-stage panic", stages)
		}
		if atRisk == 0 {
			t.Fatalf("%d released tuples were pending behind the panic; the test proves nothing", atRisk)
		}
		rep, want := x.Report(), ref.Report()
		if rep.Handler != want.Handler {
			t.Fatalf("handler stats diverged: %+v vs %+v", rep.Handler, want.Handler)
		}
		if rep.Op != want.Op {
			t.Fatalf("a sink panic cost the operator input: op %+v, want %+v (%d released tuples were pending behind the panic)",
				rep.Op, want.Op, atRisk)
		}
		// Every reference result except the poisoned one reached the sink
		// exactly once, in order.
		if wantSink := append(append([]window.Result{}, want.Results[:9]...), want.Results[10:]...); !reflect.DeepEqual(got, wantSink) {
			t.Fatalf("the sink saw %d results, want the reference's %d without its tenth (or they differ)", len(got), len(wantSink))
		}
	})

	// A panic out of a non-built-in aggregate hits while a window is being
	// emitted, and the tuple behind a gap closes several in one call: the
	// ones emitted before the panic must reach the sink (the call's return
	// value never does), the one that panicked and the rest come out of the
	// next advance. Nothing is lost, nothing comes twice.
	t.Run("emission", func(t *testing.T) {
		var gapped []stream.Item
		var lastDense stream.Time
		for _, it := range items {
			switch {
			case it.Heartbeat: // tuples alone move this stream
				continue
			case len(gapped) < 1500:
				lastDense = max(lastDense, it.Tuple.TS)
			default:
				it.Tuple.TS += 6 * stream.Second
				it.Tuple.Arrival += 6 * stream.Second
			}
			gapped = append(gapped, it)
		}
		var want []window.Result
		ref := mk(buffer.NewKSlack(500), func(r window.Result) { want = append(want, r) })
		stepAll(t, ref, gapped, stats.NewRNG(1), 1)
		if err := ref.Finish(); err != nil {
			t.Fatal(err)
		}

		fuse, armAt := 0, testSpec.LastClosed(lastDense)
		var got []window.Result
		x, err := NewExec(New(nil).Handle(buffer.NewKSlack(500)).Window(testSpec, window.Factory{Name: "fused-sum",
			New: func() window.Aggregate { return fusedSum{window.Sum().New(), &fuse} }}),
			func(r window.Result) {
				if got = append(got, r); r.Idx == armAt {
					fuse = 2 // the next call closes the gap's windows: its second Value panics
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		stages, _ := stepIsolating(t, x, gapped)
		if len(stages) != 1 || stages[0] != tracez.StageWindow {
			t.Fatalf("InFlight said %v; want exactly the one window-stage panic", stages)
		}
		if len(got) != len(want) {
			t.Fatalf("%d results reached the sink, want %d", len(got), len(want))
		}
		for i := range want {
			got[i].EmitArrival = want[i].EmitArrival // held-up windows come out later
			if got[i] != want[i] {
				t.Fatalf("result %d: %v, want %v", i, got[i], want[i])
			}
		}
		if g, w := x.Report().Op, ref.Report().Op; g != w {
			t.Fatalf("an emission panic moved the operator's counters: %+v, want %+v", g, w)
		}
	})
}

// fusedSum is a non-built-in sum whose Value panics on the *fuse-th call from
// now (0: never).
type fusedSum struct {
	window.Aggregate
	fuse *int
}

func (a fusedSum) Value() float64 {
	if *a.fuse > 0 {
		if *a.fuse--; *a.fuse == 0 {
			panic("flaky Value")
		}
	}
	return a.Aggregate.Value()
}

// kSteppingHandler moves its K-slack's K on chosen tuples, the way an
// adaptive controller does in the middle of a batch.
type kSteppingHandler struct {
	*buffer.KSlack
	setK map[uint64]stream.Time // Seq → K to set before the insert
}

func (h *kSteppingHandler) Insert(it stream.Item, out []stream.Tuple) []stream.Tuple {
	if k, ok := h.setK[it.Tuple.Seq]; ok && !it.Heartbeat {
		h.SetK(k)
	}
	return h.KSlack.Insert(it, out)
}

// TestExecTraceSyncPerStep pins what the flight recorder sees of the
// disorder handler now that the executor syncs the traced wrapper once per
// step: the events are deltas of the handler's cumulative stats, so their N
// sums to the stats however the stream was cut into steps, a panic in the
// middle of a step delays its share to the next sync and loses none of it
// (the released and stragglers counters likewise), and a K that moved twice
// inside one step is reported once, with the value it ended on.
func TestExecTraceSyncPerStep(t *testing.T) {
	items := execItems(3000, 31)
	run := func(t *testing.T, h buffer.Handler, sink func(window.Result), drive func(*Exec)) (*Exec, []tracez.Event, *Telemetry) {
		rec := tracez.NewRecorder(1 << 14)
		telem := NewTelemetry(obs.NewRegistry(), "q", testSpec)
		x, err := NewExec(New(nil).Handle(h).Window(testSpec, window.Sum()).
			Trace(tracez.New(rec, "q")).Instrument(telem), sink)
		if err != nil {
			t.Fatal(err)
		}
		drive(x)
		return x, rec.Events(), telem
	}
	check := func(t *testing.T, x *Exec, events []tracez.Event, telem *Telemetry) (inserts int) {
		t.Helper()
		n := map[tracez.Kind]int64{}
		for _, ev := range events {
			n[ev.Kind] += ev.N
			if ev.Kind == tracez.KindInsert {
				inserts++
			}
		}
		st := x.Report().Handler
		if n[tracez.KindInsert] != st.Inserted || n[tracez.KindRelease] != st.Released || n[tracez.KindStraggler] != st.Stragglers {
			t.Fatalf("events sum to %d inserted, %d released, %d stragglers; handler stats %+v",
				n[tracez.KindInsert], n[tracez.KindRelease], n[tracez.KindStraggler], st)
		}
		if st.Stragglers == 0 {
			t.Fatal("no stragglers: the comparison proves less than it should")
		}
		if got := telem.Released.Value(); got != float64(st.Released) {
			t.Fatalf("released counter %v, handler released %d", got, st.Released)
		}
		if got := telem.Stragglers.Value(); got != float64(st.Stragglers) {
			t.Fatalf("stragglers counter %v, handler stragglers %d", got, st.Stragglers)
		}
		return inserts
	}

	t.Run("mixed steps", func(t *testing.T) {
		steps := 0
		x, events, telem := run(t, buffer.NewKSlack(100), nil, func(x *Exec) {
			rng := stats.NewRNG(3)
			for rest := items; len(rest) > 0; steps++ {
				n := min(1+rng.Intn(300), len(rest))
				if err := x.Step(rest[:n]); err != nil {
					t.Fatal(err)
				}
				rest = rest[n:]
			}
			if err := x.Finish(); err != nil {
				t.Fatal(err)
			}
		})
		if inserts := check(t, x, events, telem); inserts > steps {
			t.Fatalf("%d insert events for %d steps: the sync is per step, not per tuple", inserts, steps)
		}
	})

	t.Run("panic mid-step", func(t *testing.T) {
		seen := 0
		x, events, telem := run(t, buffer.NewKSlack(100), func(window.Result) {
			if seen++; seen == 10 {
				panic("poisoned result")
			}
		}, func(x *Exec) {
			if stages, _ := stepIsolating(t, x, items); len(stages) != 1 {
				t.Fatalf("%d panics isolated, want the one injected", len(stages))
			}
		})
		check(t, x, events, telem)
	})

	t.Run("k moves inside a step", func(t *testing.T) {
		var first, second uint64
		for _, it := range items[300:500] { // the second 256-item step holds both
			if !it.Heartbeat {
				first, second = second, it.Tuple.Seq
			}
		}
		h := &kSteppingHandler{KSlack: buffer.NewKSlack(100), setK: map[uint64]stream.Time{first: 700, second: 900}}
		_, events, _ := run(t, h, nil, func(x *Exec) { stepIsolating(t, x, items) })
		var ks []int64
		for _, ev := range events {
			if ev.Kind == tracez.KindKSet {
				ks = append(ks, ev.K)
			}
		}
		if !reflect.DeepEqual(ks, []int64{100, 900}) {
			t.Fatalf("k-set events %v, want [100 900]: a sync reports the K its step ended on", ks)
		}
	})
}

// TestRunAbortsOnJournalError pins cq's driver policy for a durability
// failure: the run ends with the error (cmd/aqserver's policy, tested
// there, is to count it and carry on).
func TestRunAbortsOnJournalError(t *testing.T) {
	log := mustOpenLog(t, durable.Options{Dir: t.TempDir(), CommitEvery: 1})
	if err := log.Close(); err != nil { // every append now fails at its flush
		t.Fatal(err)
	}
	_, err := New(gen.Sensor(100, 3).Source()).Handle(buffer.NewKSlack(100)).
		Window(testSpec, window.Sum()).Durable(Durable{Log: log}).Run()
	if err == nil {
		t.Fatal("Run succeeded over a journal that cannot be written")
	}
}
