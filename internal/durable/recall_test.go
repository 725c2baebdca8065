package durable

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/snapjson"
	"repro/internal/stream"
	"repro/internal/window"
)

// joinFed is a recall handler with its join behind it, stepped one item at a
// time as cq.Exec steps a join query: the join's counts as they stood before
// the item's releases are what the handler is fed once the join has seen
// them.
type joinFed struct {
	h  *core.AQKSlack
	op *join.Join
}

// step inserts it into every handler, requires them to release alike, feeds
// the releases to the join, and hands every handler the same report.
func (j joinFed) step(t *testing.T, it stream.Item, also ...*core.AQKSlack) []stream.Tuple {
	t.Helper()
	st := j.op.Stats()
	fin := []window.Final{{Emitted: float64(st.Emitted), Full: float64(st.Emitted + st.Missed)}}
	rel, _, _ := j.h.InsertRun([]stream.Item{it}, nil, nil)
	for _, h := range also {
		if got, _, _ := h.InsertRun([]stream.Item{it}, nil, nil); !slices.Equal(got, rel) {
			t.Fatalf("releases diverged at %+v: %v vs %v", it, got, rel)
		}
	}
	for _, r := range rel {
		j.op.Insert(join.Tagged{Tuple: r, Side: join.Side(r.Src)}, it.Tuple.Arrival, nil)
	}
	for _, h := range append(also, j.h) {
		h.Feedback(fin)
	}
	return rel
}

// TestHandlerRoundTripRecall: a recall handler's state, taken mid-stream and
// carried through JSON by SaveHandler and RestoreHandler, continues exactly.
// Fed the same suffix and the same join reports as the uninterrupted
// handler, the restored one releases and decides what it does.
func TestHandlerRoundTripRecall(t *testing.T) {
	cfg := join.Config{Band: 50, RetainFor: 10 * stream.Second}
	mk := func() *core.AQKSlack {
		return core.NewAQJoin(core.JoinConfig{Recall: 0.95, Band: cfg.Band, WarmupTuples: 50})
	}
	tuples := gen.Config{
		N: 6000, Interval: 10, Poisson: true, NumKeys: 1,
		Delays: delay.ParetoWithMean(80, 1.8), Seed: 9,
	}.Arrivals()
	for i := range tuples {
		tuples[i].Src = uint8(i % 2)
	}
	a := joinFed{mk(), join.New(cfg)}
	cut := len(tuples) / 2
	for _, tp := range tuples[:cut] {
		a.step(t, stream.DataItem(tp))
	}
	traced := len(a.h.Trace())

	st, err := SaveHandler(a.h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != "aq-join" {
		t.Fatalf("kind = %q, want aq-join", st.Kind)
	}
	raw, err := snapjson.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back HandlerState
	if err := snapjson.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := RestoreHandler(b, &back); err != nil {
		t.Fatal(err)
	}

	for _, tp := range tuples[cut:] {
		a.step(t, stream.DataItem(tp), b)
	}
	if got, want := b.Flush(nil), a.h.Flush(nil); !slices.Equal(got, want) {
		t.Fatalf("restored flush %v, want %v", got, want)
	}
	trA, trB := a.h.Trace()[traced:], b.Trace()
	if len(trB) < 50 || !slices.Equal(trA, trB) {
		t.Fatalf("restored trace of %d samples differs from the uninterrupted %d", len(trB), len(trA))
	}
	if trB[len(trB)-1].RealizedErr == 0 || b.Quality().RealizedErrEWMA != a.h.Quality().RealizedErrEWMA {
		t.Fatalf("realized miss rate not carried: %+v vs %+v", b.Quality(), a.h.Quality())
	}
}

// TestRestoreHandlerRejectsOtherModel: a recall state does not restore into
// the window aggregate's handler, nor the aggregate's into a recall handler.
func TestRestoreHandlerRejectsOtherModel(t *testing.T) {
	recall := core.NewAQJoin(core.JoinConfig{Recall: 0.95, Band: 50})
	agg := core.NewAQKSlack(core.Config{Theta: 0.01, Spec: window.Spec{Size: 100, Slide: 50}, Agg: window.Sum()})
	for _, tc := range []struct {
		from, into *core.AQKSlack
		want       string
	}{
		{recall, core.NewAQKSlack(core.Config{Theta: 0.01, Spec: window.Spec{Size: 100, Slide: 50}, Agg: window.Sum()}), `"aq-join" handler, query uses aq`},
		{agg, core.NewAQJoin(core.JoinConfig{Recall: 0.95, Band: 50}), `"aq" handler, query uses aq-join`},
	} {
		st, err := SaveHandler(tc.from)
		if err != nil {
			t.Fatal(err)
		}
		if err := RestoreHandler(tc.into, st); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s state into %s: err = %v, want the mismatch %q", st.Kind, tc.into, err, tc.want)
		}
	}
}
