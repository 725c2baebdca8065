package core_test

import (
	"math"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// shadowRef is the adaptive handler's own window computation as it stood
// before the query's window operator took it over: AQKSlack's shadow
// operator and full view, copied verbatim but for what finalize does with a
// finished window — it records what the handler was fed. It is the
// reference every report of the operator must match.
type shadowRef struct {
	spec    window.Spec
	agg     window.Factory
	horizon stream.Time

	shadow     *window.Op  // emitted view (DropLate: values at emission time)
	wins       []shadowWin // wins[i] is window fullLo+i: indices are dense
	fullLo     int64       // smallest window index still tracked
	fullHi     int64       // largest window index a released tuple fell in
	haveWin    bool
	relClock   stream.Time // max released event timestamp
	relStart   bool
	scratchRes []window.Result

	finals    []window.Final // every finalized window, in the order finalize fed it
	unemitted int            // windows finalized with contributions but no emission
	emitted   map[int64]bool // windows the shadow emitted in the release in progress
	both      int            // windows one item's release both emitted and finalized
}

// shadowWin is one window of the shadow computation, until finalized.
type shadowWin struct {
	full       window.Aggregate // every contribution, stragglers included; nil while empty
	emitted    float64          // value at emission time
	hasEmitted bool
}

func newShadowRef(spec window.Spec, agg window.Factory, horizon stream.Time) *shadowRef {
	return &shadowRef{spec: spec, agg: agg, horizon: horizon,
		shadow: window.NewOp(spec, agg, window.DropLate, 0), emitted: map[int64]bool{}}
}

// processReleases runs the shadow window computation over newly released
// tuples and finalizes realized errors.
func (a *shadowRef) processReleases(rel []stream.Tuple) {
	clear(a.emitted)
	for _, t := range rel {
		if !a.relStart || t.TS > a.relClock {
			a.relClock = t.TS
			a.relStart = true
		}
		first, last := a.spec.WindowsFor(t.TS)
		if !a.haveWin {
			a.fullLo, a.haveWin = first, true
		}
		// Emitted view: exactly what the downstream op would do.
		a.scratchRes = a.shadow.Observe(t, 0, a.scratchRes[:0])
		for _, r := range a.scratchRes {
			if w := a.win(r.Idx); w != nil {
				w.emitted, w.hasEmitted = r.Value, true
				a.emitted[r.Idx] = true
			}
		}
		// Full view: every contribution counts, stragglers included.
		for idx := first; idx <= last; idx++ {
			w := a.win(idx)
			if w == nil { // beyond the feedback horizon; too late
				continue
			}
			if w.full == nil {
				w.full = a.agg.New()
			}
			w.full.Add(t.Value)
			if idx > a.fullHi {
				a.fullHi = idx
			}
		}
	}
	a.finalize()
}

// win returns the shadow slot of window idx, growing the slice to reach it,
// or nil for a window already finalized.
func (a *shadowRef) win(idx int64) *shadowWin {
	i := idx - a.fullLo
	if i < 0 {
		return nil
	}
	for int64(len(a.wins)) <= i {
		a.wins = append(a.wins, shadowWin{})
	}
	return &a.wins[i]
}

// finalize computes realized errors for windows whose feedback horizon has
// passed and releases their state.
func (a *shadowRef) finalize() {
	if !a.haveWin {
		return
	}
	done := 0
	for idx := a.fullLo; idx <= a.fullHi; idx++ {
		_, end := a.spec.Bounds(idx)
		if end+a.horizon > a.relClock {
			break
		}
		if w := a.wins[done]; w.full != nil {
			if w.hasEmitted {
				a.finals = append(a.finals, window.Final{Idx: idx, Emitted: w.emitted, Full: w.full.Value(), N: w.full.N()})
				if a.emitted[idx] {
					a.both++
				}
			} else {
				a.unemitted++
			}
		}
		done++
	}
	if done > 0 {
		// Shift the survivors down rather than re-slicing, so the backing
		// array is reused forever.
		n := copy(a.wins, a.wins[done:])
		clear(a.wins[n:])
		a.wins = a.wins[:n]
		a.fullLo += int64(done)
	}
}

// feedbackTap feeds the reference every item's release, as the handler it
// wraps makes it, and records every report the handler is fed.
type feedbackTap struct {
	buffer.FeedbackHandler
	ref *shadowRef
	got *[]window.Final
}

func (f feedbackTap) Unwrap() buffer.Handler { return f.FeedbackHandler }

func (f feedbackTap) InsertRun(items []stream.Item, out []stream.Tuple, ends []int) ([]stream.Tuple, []int, bool) {
	prev, e0 := len(out), len(ends)
	out, ends, due := f.FeedbackHandler.InsertRun(items, out, ends)
	for _, e := range ends[e0:] {
		f.ref.processReleases(out[prev:e])
		prev = e
	}
	return out, ends, due
}

func (f feedbackTap) Flush(out []stream.Tuple) []stream.Tuple {
	n := len(out)
	out = f.FeedbackHandler.Flush(out)
	f.ref.processReleases(out[n:])
	return out
}

func (f feedbackTap) Feedback(fs []window.Final) {
	*f.got = append(*f.got, fs...)
	f.FeedbackHandler.Feedback(fs)
}

// sameFinals requires got to be want, report by report: the same windows
// with the same counts, emitted values to the bit, and complete values to
// the bit when exact, else within 1e-12 relative (an avg or stddev is
// folded in key order by the operator, in release order by the reference).
func sameFinals(t *testing.T, got, want []window.Final, exact bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d windows reported, the reference finalized %d", len(got), len(want))
	}
	close := func(a, b float64) bool {
		if math.Float64bits(a) == math.Float64bits(b) {
			return true
		}
		return !exact && math.Abs(a-b) <= 1e-12*max(math.Abs(a), math.Abs(b))
	}
	for i, g := range got {
		w := want[i]
		if g.Idx != w.Idx || g.N != w.N || math.Float64bits(g.Emitted) != math.Float64bits(w.Emitted) || !close(g.Full, w.Full) {
			t.Fatalf("report %d: %+v, the reference %+v", i, g, w)
		}
	}
}

// feedbackRun is one adaptive query run through cq.Exec with the reference
// beside it.
type feedbackRun struct {
	cfg core.Config
	ref *shadowRef
	got []window.Final
	aq  *core.AQKSlack
	tap feedbackTap
}

func newFeedbackRun(cfg core.Config) *feedbackRun {
	r := &feedbackRun{cfg: cfg}
	r.aq = core.NewAQKSlack(cfg)
	r.ref = newShadowRef(cfg.Spec, cfg.Agg, r.aq.FeedbackHorizon())
	r.tap = feedbackTap{r.aq, r.ref, &r.got}
	return r
}

func (r *feedbackRun) exec(t *testing.T, d *cq.Durable) *cq.Exec {
	t.Helper()
	q := cq.New(nil).Handle(r.tap).Window(r.cfg.Spec, r.cfg.Agg).DiscardReport()
	if d != nil {
		q = q.Durable(*d)
	}
	x, err := cq.NewExec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func stepAll(t *testing.T, x *cq.Exec, items []stream.Item, step int) {
	t.Helper()
	for i := 0; i < len(items); i += step {
		if err := x.Step(items[i:min(i+step, len(items))]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFeedbackMatchesShadow: every window the query's operator reports to
// the adaptive handler — in Exec steps of one item, a wire batch and a
// recovery chunk, and across a snapshot and restore at a random item — is
// the window the handler's own shadow and full view finalized before the
// operator took them over, with the same emitted and complete value and
// count, in the same order.
func TestFeedbackMatchesShadow(t *testing.T) {
	items := pinnedItems(20_000, 57)
	aggs := []struct {
		agg   window.Factory
		exact bool
	}{
		{window.Sum(), true}, {window.Count(), true}, {window.Max(), true},
		{window.Quantile(0.95), true}, {window.Avg(), false}, {window.StdDev(), false},
	}
	rng := stats.NewRNG(57)
	for _, a := range aggs {
		cfg := core.Config{Theta: 0.01, Spec: core.PinnedSpec(), Agg: a.agg}
		for _, step := range []int{1, 100, 4096} {
			r := newFeedbackRun(cfg)
			x := r.exec(t, nil)
			stepAll(t, x, items, step)
			if err := x.Finish(); err != nil {
				t.Fatal(err)
			}
			if len(r.ref.finals) < 100 || r.ref.unemitted != 0 {
				t.Fatalf("%s step %d: the reference finalized %d windows (%d never emitted)", a.agg.Name, step, len(r.ref.finals), r.ref.unemitted)
			}
			sameFinals(t, r.got, r.ref.finals, a.exact)
		}

		t.Run("restore/"+a.agg.Name, func(t *testing.T) {
			cut := 1000 + int(rng.Float64()*float64(len(items)-2000))
			t.Logf("snapshot after item %d", cut)
			dir := t.TempDir()
			open := func() *durable.QueryLog {
				log, err := durable.Open(durable.Options{Dir: dir, SnapshotEvery: int64(cut)})
				if err != nil {
					t.Fatal(err)
				}
				return log
			}
			r := newFeedbackRun(cfg)
			log := open()
			x := r.exec(t, &cq.Durable{Log: log})
			stepAll(t, x, items[:cut], 100)
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			// A new process: a fresh handler restored from the snapshot, the
			// reference running on as if nothing had happened.
			r.aq = core.NewAQKSlack(cfg)
			r.tap.FeedbackHandler = r.aq
			log = open()
			defer log.Close()
			x = r.exec(t, &cq.Durable{Log: log})
			if rec := x.Report().Recovery; rec == nil || !rec.FromSnapshot || rec.ReplayedItems != 0 {
				t.Fatalf("recovery %+v, want the snapshot and nothing to replay", rec)
			}
			stepAll(t, x, items[cut:], 100)
			if err := x.Finish(); err != nil {
				t.Fatal(err)
			}
			sameFinals(t, r.got, r.ref.finals, a.exact)
		})
	}
}

// TestFeedbackEdgeCases: a window emitted empty that then takes late tuples
// is reported with them, as the full view counted it; and a slack drop that
// makes one item's release both emit a window and pass its feedback horizon
// reports it with the emitted value it was just given.
func TestFeedbackEdgeCases(t *testing.T) {
	t.Run("empty then late", func(t *testing.T) {
		spec := window.Spec{Size: 1000, Slide: 1000}
		// No adaptation: the slack stays 0 and every late tuple is a
		// straggler released at once.
		r := newFeedbackRun(core.Config{Theta: 0.01, Spec: spec, Agg: window.Sum(), WarmupTuples: 1 << 40})
		x := r.exec(t, nil)
		var items []stream.Item
		add := func(ts stream.Time, v float64) {
			items = append(items, stream.DataItem(stream.Tuple{TS: ts, Arrival: stream.Time(len(items)), Seq: uint64(len(items)), Value: v}))
		}
		for ts := stream.Time(0); ts < 1000; ts += 100 {
			add(ts, 1)
		}
		add(2500, 1) // window 1 is emitted empty
		add(1500, 7) // and then takes a straggler
		for ts := stream.Time(2600); ts < 8000; ts += 100 {
			add(ts, 1)
		}
		stepAll(t, x, items, 1)
		if err := x.Finish(); err != nil {
			t.Fatal(err)
		}
		sameFinals(t, r.got, r.ref.finals, true)
		var found bool
		for _, f := range r.got {
			if f.Idx == 1 {
				found = f.N == 1 && f.Emitted == 0 && f.Full == 7
			}
		}
		if !found {
			t.Fatalf("window 1 not reported as emitted empty and completed by its straggler: %+v", r.got)
		}
	})

	t.Run("emit and finalize in one run", func(t *testing.T) {
		// A horizon of a fifth of a slide: one item's release spans that
		// much of event time only where the slack has just dropped by more,
		// and then windows both close and finalize in it.
		cfg := core.Config{Theta: 0.01, Spec: core.PinnedSpec(), Agg: window.Sum(), FeedbackHorizon: stream.Second / 5}
		r := newFeedbackRun(cfg)
		x := r.exec(t, nil)
		stepAll(t, x, pinnedItems(20_000, 58), 100)
		if err := x.Finish(); err != nil {
			t.Fatal(err)
		}
		if r.ref.both == 0 {
			t.Fatal("no release both emitted and finalized a window: the case is not exercised")
		}
		sameFinals(t, r.got, r.ref.finals, true)
	})
}
