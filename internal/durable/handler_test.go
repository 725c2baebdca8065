package durable

import (
	"bytes"
	"math"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/snapjson"
	"repro/internal/stream"
	"repro/internal/window"
)

// feedHandler pushes a disordered prefix through h so its state is
// non-trivial: every third tuple is 35 units late (so adaptive slacks
// settle near 35) and the feed ends with a run of in-order tuples that a
// nonzero slack must still be buffering.
func feedHandler(t *testing.T, h buffer.Handler) {
	t.Helper()
	var scratch []stream.Tuple
	for i := 0; i < 80; i++ {
		ts := int64(i * 10)
		if i%3 == 1 && i < 74 {
			ts -= 35
		}
		it := stream.DataItem(stream.Tuple{
			TS: ts, Arrival: int64(i * 10), Seq: uint64(i), Key: uint64(i % 3), Value: float64(i) * 1.5,
		})
		scratch = h.Insert(it, scratch[:0])
	}
	if h.Len() == 0 {
		t.Fatal("feed left the handler empty; round-trip would be vacuous")
	}
}

// roundTrip saves h, restores into fresh, and requires the restored
// handler to be observationally identical: same K, same buffered count,
// same stats, and the same remaining event-time-ordered releases.
func roundTrip(t *testing.T, kind string, h, fresh buffer.Handler) {
	t.Helper()
	st, err := SaveHandler(h)
	if err != nil {
		t.Fatalf("SaveHandler: %v", err)
	}
	if st.Kind != kind {
		t.Fatalf("kind = %q, want %q", st.Kind, kind)
	}
	if err := RestoreHandler(fresh, st); err != nil {
		t.Fatalf("RestoreHandler: %v", err)
	}
	if fresh.K() != h.K() || fresh.Len() != h.Len() {
		t.Fatalf("restored K=%d len=%d, want K=%d len=%d", fresh.K(), fresh.Len(), h.K(), h.Len())
	}
	if fresh.Stats() != h.Stats() {
		t.Fatalf("restored stats %+v, want %+v", fresh.Stats(), h.Stats())
	}
	got := fresh.Flush(nil)
	want := h.Flush(nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored flush %v, want %v", got, want)
	}
}

func TestHandlerRoundTripKSlack(t *testing.T) {
	h := buffer.NewKSlack(25)
	feedHandler(t, h)
	roundTrip(t, "kslack", h, buffer.NewKSlack(25))
}

func TestHandlerRoundTripMaxSlack(t *testing.T) {
	h := buffer.NewMaxSlack()
	feedHandler(t, h)
	roundTrip(t, "maxslack", h, buffer.NewMaxSlack())
}

func TestHandlerRoundTripPercentile(t *testing.T) {
	h := buffer.NewPercentile(0.95, 10)
	feedHandler(t, h)
	roundTrip(t, "percentile", h, buffer.NewPercentile(0.95, 10))
}

func TestHandlerRoundTripPunctuated(t *testing.T) {
	h := buffer.NewPunctuated()
	feedHandler(t, h)
	h.Insert(stream.HeartbeatItem(300), nil) // trusted: everything at or below it leaves
	fresh := buffer.NewPunctuated()
	st, err := SaveHandler(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreHandler(fresh, st); err != nil {
		t.Fatal(err)
	}
	// The watermark came along: a tuple below it is a violation in both.
	late := stream.DataItem(stream.Tuple{TS: 250, Arrival: 900, Seq: 99})
	if got, want := fresh.Insert(late, nil), h.Insert(late, nil); !reflect.DeepEqual(got, want) || len(got) != 1 {
		t.Fatalf("restored handler released %v for a tuple below the watermark, the original %v", got, want)
	}
	roundTrip(t, "punctuated", h, fresh)
}

// TestSnapshotFileRoundTripsInfiniteState: an adaptive handler whose buffer,
// reservoir and shadow windows hold ±Inf and whose loss curve holds NaN —
// the deepest state a snapshot carries, RNG arrays and all — is written to a
// snapshot file and read back to the bit: written again, it is the same
// bytes.
func TestSnapshotFileRoundTripsInfiniteState(t *testing.T) {
	h := core.NewAQKSlack(core.Config{Theta: 0.001, Spec: window.Spec{Size: 100, Slide: 50}, Agg: window.Max(), WarmupTuples: 1})
	var out []stream.Tuple
	for i := 0; i < 200; i++ {
		v := float64(i)
		switch i % 17 {
		case 3:
			v = math.Inf(1)
		case 11:
			v = math.Inf(-1)
		}
		ts := int64(i*10 - (i%3)*25)
		out = h.Insert(stream.DataItem(stream.Tuple{TS: ts, Arrival: int64(i * 10), Seq: uint64(i), Value: v}), out[:0])
	}
	st, err := SaveHandler(h)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want := &Snapshot{Records: 7, Items: 200, Handler: st, Counters: map[string]int64{"emitted": 3}}
	if _, err := writeSnapshotFile(dir, want); err != nil {
		t.Fatalf("a snapshot holding ±Inf was not written: %v", err)
	}
	got, err := loadLatestSnapshot(dir)
	if err != nil || got == nil {
		t.Fatalf("snapshot not read back: %v", err)
	}
	wantJSON, err := snapjson.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := snapjson.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) || !strings.Contains(string(wantJSON), `"-Inf"`) {
		t.Fatalf("snapshot read back differs (or holds no -Inf):\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

func TestHandlerRoundTripAQ(t *testing.T) {
	cfg := core.Config{
		Theta: 0.001, // tight bound: the controller must hold a real slack
		Spec:  window.Spec{Size: 100, Slide: 50},
		Agg:   window.Sum(),
		// Adapt from the start so the 80-tuple feed exercises the
		// controller, not just the underlying buffer.
		WarmupTuples: 1,
	}
	h := core.NewAQKSlack(cfg)
	// The query's window operator behind it, as cq.Exec runs one: the
	// realized error it reports is what makes the controller hold a slack.
	op := window.NewOp(cfg.Spec, cfg.Agg, window.DropLate, 0)
	op.SetFeedback(h.FeedbackHorizon())
	feedHandler(t, withOperator{h, op})
	roundTrip(t, "aq", h, core.NewAQKSlack(cfg))
}

// TestHandlerRestoresRetiredPIOutput: a snapshot written while the PI
// controller still kept its last output carries it — "lastFactor" and
// "hasOutput" after "clamps", though nothing read them. Such a state, read
// through snapjson, restores with the two keys ignored, saves back to the
// bytes the handler writes now, and the restored handler, behind a copy of
// the operator, continues to the bit as the original does.
func TestHandlerRestoresRetiredPIOutput(t *testing.T) {
	cfg := core.Config{Theta: 0.001, Spec: window.Spec{Size: 100, Slide: 50}, Agg: window.Sum(), WarmupTuples: 1}
	item := func(i int) stream.Item {
		ts := int64(i * 10)
		if i%3 == 1 {
			ts -= 35
		}
		return stream.DataItem(stream.Tuple{TS: ts, Arrival: int64(i * 10), Seq: uint64(i), Value: float64(i%7) * 1.5})
	}
	withOp := func(h *core.AQKSlack) withOperator {
		op := window.NewOp(cfg.Spec, cfg.Agg, window.DropLate, 0)
		op.SetFeedback(h.FeedbackHorizon())
		return withOperator{h, op}
	}
	orig := withOp(core.NewAQKSlack(cfg))
	const cut = 600
	for i := 0; i < cut; i++ {
		orig.Insert(item(i), nil)
	}
	tr := orig.Trace()
	last := tr[len(tr)-1].PIFactor
	if last == 1 {
		t.Fatal("test setup: the PI trim never acted before the cut")
	}
	st, err := SaveHandler(orig.AQKSlack)
	if err != nil {
		t.Fatal(err)
	}
	now, err := snapjson.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	clamps := regexp.MustCompile(`("pi":\{[^{}]*"clamps":-?\d+)\}`)
	before := clamps.ReplaceAll(now, []byte(`${1},"lastFactor":`+strconv.FormatFloat(last, 'g', -1, 64)+`,"hasOutput":true}`))
	if bytes.Equal(before, now) {
		t.Fatalf("no PI state in %s", now)
	}
	var back HandlerState
	if err := snapjson.Unmarshal(before, &back); err != nil {
		t.Fatal(err)
	}
	restored := withOp(core.NewAQKSlack(cfg))
	if err := RestoreHandler(restored.AQKSlack, &back); err != nil {
		t.Fatal(err)
	}
	if err := restored.op.Restore(orig.op.State()); err != nil {
		t.Fatal(err)
	}
	again, err := SaveHandler(restored.AQKSlack)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := snapjson.Marshal(again); !bytes.Equal(b, now) {
		t.Fatalf("restored state saves as\n%s\nwant\n%s", b, now)
	}
	for i := cut; i < 2*cut; i++ {
		if got, want := restored.Insert(item(i), nil), orig.Insert(item(i), nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("item %d: restored handler released %v, the original %v", i, got, want)
		}
	}
	if got, want := restored.Trace(), orig.Trace()[len(tr):]; len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("restored handler decided %d times differently from the original's %d", len(got), len(want))
	}
	if restored.Quality() != orig.Quality() {
		t.Fatalf("quality counters %+v, the original %+v", restored.Quality(), orig.Quality())
	}
}

// withOperator is an adaptive handler with its query's window operator
// behind it: each Insert is a run of one item, observed by the operator,
// whose reports go back to the handler.
type withOperator struct {
	*core.AQKSlack
	op *window.Op
}

func (w withOperator) Insert(it stream.Item, out []stream.Tuple) []stream.Tuple {
	n := len(out)
	out, _, _ = w.InsertRun([]stream.Item{it}, out, nil)
	for _, t := range out[n:] {
		w.op.Observe(t, 0, nil)
	}
	w.Feedback(w.op.Finals(nil))
	return out
}

// tapHandler is an instrumentation wrapper: it hides the handler's type and
// hands the handler back through Unwrap.
type tapHandler struct{ buffer.Handler }

func (w tapHandler) Unwrap() buffer.Handler { return w.Handler }

// opaqueHandler hides the handler's type and offers no Unwrap.
type opaqueHandler struct{ buffer.Handler }

// Instrumentation wrappers must be transparent: the state belongs to the
// wrapped handler, and a wrapped target restores like a bare one.
func TestHandlerRoundTripUnwrapsInstrumentation(t *testing.T) {
	h := tapHandler{buffer.NewKSlack(25)}
	feedHandler(t, h)
	roundTrip(t, "kslack", h, tapHandler{buffer.NewKSlack(25)})
}

func TestRestoreHandlerRejectsMismatch(t *testing.T) {
	h := buffer.NewKSlack(25)
	feedHandler(t, h)
	st, err := SaveHandler(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreHandler(buffer.NewPercentile(0.9, 10), st); err == nil ||
		!strings.Contains(err.Error(), "percentile") {
		t.Fatalf("kslack state into percentile handler: err = %v", err)
	}
	if err := RestoreHandler(buffer.NewMaxSlack(), st); err == nil {
		t.Fatal("kslack state into maxslack handler must fail")
	}
	if err := RestoreHandler(buffer.NewKSlack(25), nil); err == nil {
		t.Fatal("nil state must fail")
	}
}

func TestUnsupportedHandlerRejected(t *testing.T) {
	h := opaqueHandler{buffer.NewKSlack(10)}
	if _, err := SaveHandler(h); err == nil {
		t.Fatal("SaveHandler on an unsupported handler must fail")
	}
	st := &HandlerState{Kind: "kslack"}
	if err := RestoreHandler(opaqueHandler{buffer.NewKSlack(10)}, st); err == nil {
		t.Fatal("RestoreHandler on an unsupported handler must fail")
	}
}
