package cq

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs/tracez"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// pinnedTraces are the flight-recorder digests TestFlightRecorderPinned
// holds every case to, recorded while a handler wrapper still wrote the
// disorder buffer's events. The aq entries were re-recorded when the loss
// curve of a one-sign sum became the closed form, which moves its slacks,
// and again when the lateness sketch became the exact histogram.
var pinnedTraces = map[string]string{
	"concurrent/aq":                 "6fbc456902916fd74ad46b4e40073f1a7cbc584e5ca23152b8c34f6000d0d8bd",
	"concurrent/grouped-kslack":     "9a88ee256500ab09e88ff9dd5d0bc94754796bfb55371d082f90e036c58dae7a",
	"concurrent/kslack":             "4bd1bfe088a8be73a7ac429598984d9d5ad532374a635f53e0fe3e14be102956",
	"concurrent/maxslack":           "a904f1a389af50eeb59e7470d9c75ac9cfd25459146616b54a776a99375e4a39",
	"exec/lead-traced=false/stage2": "51d5d2174dbae698aee4c72100e87d35fe825fbdde94c3977020955655f2e1cf",
	"exec/lead-traced=false/stage3": "b98ec6f98afcbaedacd3373f160883dcfbdd925e0ff931aa3e3be6a7c1ba7054",
	"exec/lead-traced=true/stage0":  "b98ec6f98afcbaedacd3373f160883dcfbdd925e0ff931aa3e3be6a7c1ba7054",
	"exec/lead-traced=true/stage2":  "51d5d2174dbae698aee4c72100e87d35fe825fbdde94c3977020955655f2e1cf",
	"exec/lead-traced=true/stage3":  "b98ec6f98afcbaedacd3373f160883dcfbdd925e0ff931aa3e3be6a7c1ba7054",
	"run/aq":                        "9f529fe1386ca849dbf66bb9ad769f1b57a5ec5b5a156b1406511858f58768b0",
	"run/grouped-kslack":            "e79035ba31f7d9ebc4ef01a6178a4cae8e16de9681408f8732f1ca09801e5d0e",
	"run/kslack":                    "77450af791ba35bca87fe5505e31bd66ef9ba6340bef7aadfb79c4072d32da72",
	"run/maxslack":                  "3f1d55a0c4b5a97051e754fb66fd34b8ae7f9927ed359c63bc35b5e0e05ea180",
	"shared/aq":                     "6fbc456902916fd74ad46b4e40073f1a7cbc584e5ca23152b8c34f6000d0d8bd",
	"shared/grouped-kslack":         "9a88ee256500ab09e88ff9dd5d0bc94754796bfb55371d082f90e036c58dae7a",
	"shared/kslack":                 "4bd1bfe088a8be73a7ac429598984d9d5ad532374a635f53e0fe3e14be102956",
	"shared/maxslack":               "a904f1a389af50eeb59e7470d9c75ac9cfd25459146616b54a776a99375e4a39",
}

// pinItems is the keyed, disordered, heartbeat-punctuated input of every
// pinned case.
func pinItems() []stream.Item {
	items := execItems(6000, 53)
	for i := range items {
		if !items[i].Heartbeat {
			items[i].Tuple.Key = items[i].Tuple.Seq % 5
		}
	}
	return items
}

// pinQuery is one traced query of a pinned case: handler kind, grouping, and
// the recorder its tracer writes to.
type pinQuery struct {
	kind    string
	grouped bool
	rec     *tracez.Recorder
}

func (p *pinQuery) handler() buffer.Handler {
	switch p.kind {
	case "kslack":
		return buffer.NewKSlack(700)
	case "maxslack":
		return buffer.NewMaxSlack()
	case "aq":
		return core.NewAQKSlack(core.Config{Theta: 0.01, Spec: testSpec, Agg: window.Sum()})
	}
	panic("pin: unknown handler " + p.kind)
}

// query builds p's query over src (nil for the ring drivers and an Exec),
// traced into a fresh recorder.
func (p *pinQuery) query(src stream.Source) *AggQuery {
	p.rec = tracez.NewRecorder(1 << 16)
	q := New(src).Handle(p.handler()).Window(testSpec, window.Sum()).Trace(tracez.New(p.rec, p.kind))
	if p.grouped {
		q.GroupBy()
	}
	return q
}

// flightRecorderCases runs every pinned case and returns each traced query's
// digest by name. The ring drivers publish one item per batch, so their steps
// — and with them the disorder buffer's per-step events — do not depend on
// scheduling.
func flightRecorderCases(t *testing.T) map[string]string {
	items := pinItems()
	got := map[string]string{}
	record := func(name string, p *pinQuery) {
		if p.rec.Total() == 0 {
			t.Fatalf("%s: nothing recorded", name)
		}
		got[name] = tracez.Digest(p.rec.Events())
	}
	shapes := []*pinQuery{{kind: "kslack"}, {kind: "maxslack"}, {kind: "aq"}, {kind: "kslack", grouped: true}}
	name := func(driver string, p *pinQuery) string {
		if p.grouped {
			return driver + "/grouped-" + p.kind
		}
		return driver + "/" + p.kind
	}
	for _, p := range shapes {
		if _, err := p.query(stream.NewSliceSource(items)).Run(); err != nil {
			t.Fatal(err)
		}
		record(name("run", p), p)
		if _, err := p.query(stream.NewSliceSource(items)).Batch(1).RunConcurrent(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		record(name("concurrent", p), p)
	}

	// RunShared: the two kslack queries share one disorder pass, the others
	// run alone.
	qs := make([]*AggQuery, len(shapes))
	for i, p := range shapes {
		qs[i] = p.query(nil)
	}
	src := stream.AsErrSource(stream.NewSliceSource(items))
	if _, err := RunShared(context.Background(), src, SharedOpts{Ring: 8, Batch: 1}, qs...); err != nil {
		t.Fatal(err)
	}
	for _, p := range shapes {
		record(name("shared", p), p)
	}

	// One Exec: a traced lead, an untraced query, a grouped and a plain traced
	// query join; one traced query leaves mid-stream, the rest finish. Then
	// the same with an untraced lead, whose pass a traced query joins.
	for _, lead := range []bool{true, false} {
		stagesOf := []*pinQuery{{kind: "kslack"}, {kind: "kslack"}, {kind: "kslack", grouped: true}, {kind: "kslack"}}
		var x *Exec
		for i, p := range stagesOf {
			q := p.query(nil)
			if i == 1 || (i == 0 && !lead) {
				q.Trace(nil)
			}
			if i == 0 {
				var err error
				if x, err = NewExec(q, nil); err != nil {
					t.Fatal(err)
				}
			} else if _, err := x.Join(q, nil); err != nil {
				t.Fatal(err)
			}
		}
		leaving := x.Stages()[2]
		stepAll(t, x, items[:3500], stats.NewRNG(5), 200)
		if err := x.Leave(leaving); err != nil {
			t.Fatal(err)
		}
		stepAll(t, x, items[3500:], stats.NewRNG(6), 200)
		if err := x.Finish(); err != nil {
			t.Fatal(err)
		}
		for i, p := range stagesOf {
			if i == 1 || (i == 0 && !lead) {
				continue
			}
			record(fmt.Sprintf("exec/lead-traced=%v/stage%d", lead, i), p)
		}
	}
	return got
}

// TestFlightRecorderPinned holds every event the flight recorder takes of a
// traced query — the synchronous, concurrent and shared drivers; K-slack,
// MAX-slack, adaptive and grouped queries; a shared pass that queries join
// and one leaves — to digests recorded before the executor wrote the
// disorder buffer's events itself: who writes them must not move one.
func TestFlightRecorderPinned(t *testing.T) {
	got := flightRecorderCases(t)
	for name, d := range got {
		if want, ok := pinnedTraces[name]; !ok || d != want {
			t.Errorf("%q: %q, pinned %q", name, d, want)
		}
	}
	if len(got) != len(pinnedTraces) {
		t.Errorf("%d cases, %d pinned", len(got), len(pinnedTraces))
	}
}
