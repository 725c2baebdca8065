package core_test

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/join"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// releaseHasher hashes everything the adaptive handler it wraps releases, in
// release order, as cq.Exec drives it.
type releaseHasher struct {
	buffer.FeedbackHandler
	hs []*core.PinHash
}

func (r releaseHasher) InsertRun(items []stream.Item, out []stream.Tuple, ends []int) ([]stream.Tuple, []int, bool) {
	n := len(out)
	out, ends, due := r.FeedbackHandler.InsertRun(items, out, ends)
	r.hash(out[n:])
	return out, ends, due
}

func (r releaseHasher) Flush(out []stream.Tuple) []stream.Tuple {
	n := len(out)
	out = r.FeedbackHandler.Flush(out)
	r.hash(out[n:])
	return out
}

func (r releaseHasher) hash(rel []stream.Tuple) {
	for _, h := range r.hs {
		h.Released(rel)
	}
}

// runPinned drives h through cq.Exec over items in steps of step items, a
// window of agg over the pinned spec downstream, hashing what h releases
// into every one of hs.
func runPinned(t *testing.T, h buffer.FeedbackHandler, agg window.Factory, items []stream.Item, step int, hs ...*core.PinHash) {
	t.Helper()
	x, err := cq.NewExec(cq.New(nil).Handle(releaseHasher{h, hs}).Window(core.PinnedSpec(), agg).DiscardReport(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(items); i += step {
		if err := x.Step(items[i:min(i+step, len(items))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Finish(); err != nil {
		t.Fatal(err)
	}
}

func pinnedItems(n int, seed uint64) []stream.Item {
	items := make([]stream.Item, 0, n)
	for _, tp := range core.DriftTuples(n, seed) {
		items = append(items, stream.DataItem(tp))
	}
	return items
}

// TestControllerDecisionsPinned: every slack the controllers choose, every
// error they estimate and every tuple they release over the drift stream
// hashes to what the parent of the controller rewrite produced. The
// adaptive K-slack runs as every query runs it, through cq.Exec: its
// realized error comes from the query's window operator. avg and stddev
// fold a window's complete value in key order where the handler's own
// computation once folded it in release order, so their realized errors
// moved in the last bits and their full hashes were re-recorded then;
// their slacks and releases did not move (kOnly, recorded on the commit
// before). sum and count were re-recorded when their loss curve became the
// closed form, which removes the sweep's noise from their budgets. Every
// kslack and join hash was re-recorded when the lateness sketch became the
// exact histogram read with the tail margin; avg's and stddev's slacks and
// releases held (kOnly), and the curve hashes do not read the lateness.
func TestControllerDecisionsPinned(t *testing.T) {
	items := pinnedItems(core.PinnedN, 51)
	check := func(t *testing.T, what string, h *core.PinHash, want uint64) {
		t.Helper()
		if got := h.Sum(); got != want {
			t.Errorf("%s hash %#x, want %#x", what, got, want)
		}
	}
	for _, tc := range []struct {
		agg         window.Factory
		want, kOnly uint64
	}{
		{window.Sum(), 0x6ac0f462f31b0ed5, 0},
		{window.Count(), 0x363d51ce20f7d8d8, 0},
		{window.Avg(), 0x1adbb41a673b5ef1, 0xd4fbd6e3e9029161},
		{window.Max(), 0x5ffaa048ebd3a99a, 0},
		{window.Quantile(0.95), 0x8d831967b21ae90e, 0},
		{window.StdDev(), 0x8d5357ed0fe1f9be, 0xa408fe178aba1736},
	} {
		t.Run("kslack/"+tc.agg.Name, func(t *testing.T) {
			aq := core.NewAQKSlack(core.Config{Theta: 0.01, Spec: core.PinnedSpec(), Agg: tc.agg})
			h, k := core.NewPinHash(), core.NewPinHash()
			runPinned(t, aq, tc.agg, items, 100, h, k)
			tr := aq.Trace()
			if len(tr) < 300 {
				t.Fatalf("only %d adaptations", len(tr))
			}
			if tc.kOnly != 0 {
				// The releases, then every slack chosen.
				for _, s := range tr {
					k.U64(uint64(s.At), uint64(s.K))
				}
				check(t, "slack and release", k, tc.kOnly)
			}
			h.Samples(tr)
			check(t, "decision", h, tc.want)
		})
	}

	t.Run("join", func(t *testing.T) {
		two := core.DriftTuples(core.PinnedN*2/5, 52) // the join operator is the slow part
		for i := range two {
			two[i].Src = uint8(i % 2)
		}
		cfg := join.Config{Band: 500, RetainFor: 60 * stream.Second}
		aq := core.NewAQJoin(core.JoinConfig{Recall: 0.99, Band: 500})
		h := core.NewPinHash()
		// Sides are Src-defined: the whole stream is the left source. The
		// join stage feeds the handler its realized recall through the
		// hasher, as it does any feedback handler.
		hasher := releaseHasher{aq, []*core.PinHash{h}}
		if _, err := cq.NewJoin(stream.FromTuples(two), stream.FromTuples(nil), cfg).Handle(hasher).Run(); err != nil {
			t.Fatal(err)
		}
		h.Samples(aq.Trace())
		if n := aq.Quality().Adaptations; n < 300 {
			t.Fatalf("only %d adaptations", n)
		}
		check(t, "decision", h, 0xfe38fe926da906f2)
	})

	// The curve itself at fixed estimator states: a full power-of-two
	// reservoir and a partly filled one. The swept aggregates' hash is the
	// one recorded before count and one-sign sum took the closed form, which
	// left their sweep alone; the closed-form hash is sum's and count's.
	for _, tc := range []struct {
		name          string
		est           func(agg window.Factory) *core.Estimator
		swept, closed uint64
	}{
		{"curve/pow2", func(agg window.Factory) *core.Estimator { return core.SkewedEstimator(agg, 16) },
			0x68c0953216524380, 0xab163cea0d389485},
		{"curve/partial", func(agg window.Factory) *core.Estimator {
			e := core.NewEstimator(core.PinnedSpec(), agg, core.EstimatorConfig{Seed: 5})
			rng := stats.NewRNG(6)
			for i := 0; i < 3001; i++ {
				e.ObserveTuple(0, rng.Float64Range(50, 150)+20*rng.NormFloat64())
			}
			e.ObserveWindowCount(700)
			return e
		}, 0xb443eb706cecfdd6, 0xab163cea0d389485},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range []struct {
				what string
				aggs []window.Factory
				want uint64
			}{
				{"swept curve", []window.Factory{window.Avg(), window.Max(), window.Median(), window.StdDev()}, tc.swept},
				{"closed-form curve", []window.Factory{window.Sum(), window.Count()}, tc.closed},
			} {
				h := core.NewPinHash()
				for _, agg := range c.aggs {
					h.F64(core.CurveErrs(tc.est(agg))...)
				}
				check(t, c.what, h, c.want)
			}
		})
	}
}

// TestControllerDecisionsPinnedThroughExec is TestControllerDecisionsPinned's
// sum case driven the way every server runner drives it — through cq.Exec,
// in one-item, wire-sized and recovery-sized steps — and pinned, results
// included, to one hash whatever the step size. Re-recorded with sum's
// closed-form loss curve, and with the exact lateness histogram.
func TestControllerDecisionsPinnedThroughExec(t *testing.T) {
	const want uint64 = 0xcc4f3929b0ef009a
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	items := make([]stream.Item, 0, core.PinnedN)
	for _, tp := range core.DriftTuples(core.PinnedN, 51) {
		items = append(items, stream.DataItem(tp))
	}
	for _, batch := range []int{1, 100, 4096} {
		aq := core.NewAQKSlack(core.Config{Theta: 0.01, Spec: spec, Agg: window.Sum()})
		h := core.NewPinHash()
		x, err := cq.NewExec(cq.New(nil).Handle(aq).Window(spec, window.Sum()).DiscardReport(),
			func(r window.Result) {
				h.U64(uint64(r.Idx), uint64(r.Count), uint64(r.EmitArrival))
				h.F64(r.Value)
			})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(items); i += batch {
			if err := x.Step(items[i:min(i+batch, len(items))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Finish(); err != nil {
			t.Fatal(err)
		}
		h.Samples(aq.Trace())
		if got := h.Sum(); got != want {
			t.Errorf("batch %d: decision hash %#x, want %#x", batch, got, want)
		}
	}
}
