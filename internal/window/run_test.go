package window

import (
	"encoding/json"
	"testing"

	"repro/internal/stream"
)

// FuzzObserveRunMatchesObserve is ObserveRun's contract: feeding an operator
// a stream as runs, cut anywhere, is feeding it tuple by tuple — the same
// results with the same bits and the same EmitArrival, the same counters, the
// same emission cursor and the same snapshot, tree shape included (the shape
// decides how a float sum's partials group, so it decides later bits).
//
// The stream is what a K-slack releases: ascending for the most part, with
// equal timestamps, tuples a little behind the clock (inside the band that
// is late for nothing), stragglers several slides behind it (late for some
// windows, with a finite refinement horizon for some of those) and gaps that
// close several windows at once. The bytes choose the spec (tumbling, sliding,
// Size not a multiple of Slide), the policy, the aggregate (a monoid, an order
// statistic, scans), every timestamp, every run cut and every tuple's now.
func FuzzObserveRunMatchesObserve(f *testing.F) {
	f.Add(uint8(9), uint8(2), uint8(0), false, []byte("\x03\x01\x02\x81\x00\x02\x05\x03\xf0\x02\x01\x80\x04\x01\xff\x02\x03\x01\x02\x80\xe3\x01\x01\x02"))
	f.Add(uint8(6), uint8(6), uint8(3), true, []byte("abcdefghijklmnopqrstuvwxyz\xe1\xe2\xe3\xff\x00\x00\x00\x00\xf1\xf2\xf3\xf4\x80\x81\x82\x83"))
	f.Add(uint8(10), uint8(3), uint8(1), true, []byte("\x07\x80\x07\x80\x07\x80\xe5\x00\x07\x01\xff\x80\xe1\x01"))
	f.Add(uint8(0), uint8(0), uint8(5), false, []byte{})
	aggs := []Factory{Sum(), Max(), Count(), Quantile(0.95), Avg(), Distinct()}
	f.Fuzz(func(t *testing.T, sizeSel, slideSel, aggSel uint8, refine bool, data []byte) {
		spec := Spec{Size: 1 + stream.Time(sizeSel%48)}
		spec.Slide = 1 + stream.Time(slideSel)%spec.Size
		agg := aggs[int(aggSel)%len(aggs)]
		pol, refineFor := DropLate, stream.Time(0)
		if refine {
			pol, refineFor = RefineLate, 2*spec.Size // finite: retained windows expire mid-stream
		}
		single, runs := NewOp(spec, agg, pol, refineFor), NewOp(spec, agg, pol, refineFor)

		var clock, now stream.Time
		var ts []stream.Tuple
		var nows []stream.Time
		var want, got []Result
		flush := func() {
			pos := 0
			got = runs.ObserveRun(ts, nows, &pos, got[:0])
			if pos != len(ts) {
				t.Fatalf("ObserveRun left its cursor at %d of %d", pos, len(ts))
			}
			want = want[:0]
			for i := range ts {
				want = single.Observe(ts[i], nows[i], want)
			}
			requireSameBits(t, "a run's results", want, got)
			if g, w := runs.Stats(), single.Stats(); g != w {
				t.Fatalf("stats %+v, tuple by tuple %+v", g, w)
			}
			ge, gh := runs.EmitProgress()
			we, wh := single.EmitProgress()
			if ge != we || gh != wh {
				t.Fatalf("emit progress %d/%v, tuple by tuple %d/%v", ge, gh, we, wh)
			}
			gs, err := json.Marshal(runs.State())
			if err != nil {
				t.Fatal(err)
			}
			ws, err := json.Marshal(single.State())
			if err != nil {
				t.Fatal(err)
			}
			if string(gs) != string(ws) {
				t.Fatalf("state diverged:\n run by run    %s\n tuple by tuple %s", gs, ws)
			}
			ts, nows = ts[:0], nows[:0]
		}
		for i := 0; i+1 < len(data); i += 2 {
			step, ctl := data[i], data[i+1]
			at := clock + stream.Time(step%8) // 0: an equal timestamp
			switch {
			case step == 0xff:
				at = clock + 3*spec.Size + stream.Time(ctl%5) // a gap: several windows close at once
			case step >= 0xf0:
				at = clock - stream.Time(step%4) // a little behind the clock
			case step >= 0xe0:
				at = clock - stream.Time(step%16)*spec.Slide - stream.Time(ctl%3) // a straggler
			}
			clock = max(clock, at)
			now += stream.Time(ctl % 3)
			ts = append(ts, stream.Tuple{TS: at, Seq: uint64(i / 2), Value: float64(int(ctl%32)-10) / 4})
			nows = append(nows, now)
			if ctl >= 0x80 {
				flush()
			}
		}
		flush()
		requireSameBits(t, "the final flush", single.Flush(now, nil), runs.Flush(now, nil))
	})
}

// TestObserveRunRetriesHeldUpEmission: a window whose emission panicked is
// emitted by the next advance, and the next tuple of a run is that advance
// even when it lies in the band that otherwise closes nothing — the clock is
// already past the window's end.
func TestObserveRunRetriesHeldUpEmission(t *testing.T) {
	spec := Spec{Size: 10, Slide: 5}
	build := func() (*Op, func(stream.Tuple)) {
		armed := true
		op := NewOp(spec, Factory{Name: "flaky-sum", New: func() Aggregate { return flakyValue{Sum().New(), &armed} }}, DropLate, 0)
		return op, func(tu stream.Tuple) {
			defer func() { recover() }()
			op.Observe(tu, tu.TS, nil)
		}
	}
	single, feedSingle := build()
	runs, feedRuns := build()
	for _, ts := range []stream.Time{0, 3, 6} { // 6 closes the first window, [-5,5): its emission panics, once
		feedSingle(stream.Tuple{TS: ts, Seq: uint64(ts), Value: 1})
		feedRuns(stream.Tuple{TS: ts, Seq: uint64(ts), Value: 1})
	}
	if n, _ := single.EmitProgress(); n != -1 {
		t.Fatalf("test setup: window -1 was emitted (next is %d)", n)
	}
	late := []stream.Tuple{{TS: 4, Seq: 100, Value: 1}} // behind the clock, late for nothing
	pos := 0
	got := runs.ObserveRun(late, []stream.Time{20}, &pos, nil)
	want := single.Observe(late[0], 20, nil)
	if len(want) == 0 {
		t.Fatal("test setup: the tuple behind the panic emitted nothing")
	}
	requireSameBits(t, "results behind a held-up emission", want, got)
}

// flakyValue is an aggregate whose Value panics while *armed, once.
type flakyValue struct {
	Aggregate
	armed *bool
}

func (a flakyValue) Value() float64 {
	if *a.armed {
		*a.armed = false
		panic("flaky Value")
	}
	return a.Aggregate.Value()
}
