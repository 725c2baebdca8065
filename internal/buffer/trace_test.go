package buffer

import (
	"testing"

	"repro/internal/obs/tracez"
	"repro/internal/stream"
)

// kindCounts tallies the recorder's events by kind.
func kindCounts(rec *tracez.Recorder) map[tracez.Kind]int64 {
	n := make(map[tracez.Kind]int64)
	for _, ev := range rec.Events() {
		n[ev.Kind] += ev.N
		if ev.N == 0 {
			n[ev.Kind]++
		}
	}
	return n
}

func TestTracedMirrorsHandlerActivity(t *testing.T) {
	rec := tracez.NewRecorder(1 << 10)
	h := NewTraced(NewKSlack(5), tracez.New(rec, "test"))

	var out []stream.Tuple
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 100, Arrival: 100}), out)
	// Clock 110 releases TS 100 (≤ 110−K) in order.
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 110, Arrival: 110, Seq: 1}), out)
	// A straggler: TS 95 is behind the released TS 100, forwarded out of
	// event-time order.
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 95, Arrival: 115, Seq: 2}), out)
	h.Sync()
	out = h.Insert(stream.HeartbeatItem(120), out)
	out = h.Flush(out)
	h.Sync()

	st := h.Stats()
	if st.Inserted != 3 || st.Released != 3 {
		t.Fatalf("stats = %+v, want 3 inserted, 3 released", st)
	}
	n := kindCounts(rec)
	if n[tracez.KindInsert] != st.Inserted {
		t.Errorf("insert events carry N=%d, want %d", n[tracez.KindInsert], st.Inserted)
	}
	if n[tracez.KindRelease] != st.Released {
		t.Errorf("release events carry N=%d, want %d", n[tracez.KindRelease], st.Released)
	}
	if n[tracez.KindStraggler] != st.Stragglers || st.Stragglers == 0 {
		t.Errorf("straggler events carry N=%d, want %d (nonzero)",
			n[tracez.KindStraggler], st.Stragglers)
	}
	if n[tracez.KindKSet] == 0 {
		t.Error("no k-set event for the initial slack")
	}

	// Event timestamps follow the buffer's event-time clock, never exceed it.
	for _, ev := range rec.Events() {
		if ev.At > 120 {
			t.Fatalf("event timestamp %d beyond max event time 120: %+v", ev.At, ev)
		}
	}
}

func TestTracedSyncsOnDemandAndForwards(t *testing.T) {
	rec := tracez.NewRecorder(1 << 10)
	inner := NewKSlack(4)
	h := NewTraced(inner, tracez.New(rec, "test"))

	var out []stream.Tuple
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 10, Arrival: 10}), out)
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 12, Arrival: 12, Seq: 1}), out)
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 30, Arrival: 30, Seq: 2}), out)
	if rec.Len() != 0 {
		t.Fatalf("%d events before the first Sync: inserts must not record", rec.Len())
	}
	h.Sync()
	// One event per non-zero delta, N = count: 3 inserted, 2 released
	// (TS 10 and 12 are behind 30−K), plus the initial slack.
	var inserts int
	for _, ev := range rec.Events() {
		if ev.Kind == tracez.KindInsert {
			inserts++
			if ev.N != 3 || ev.At != 30 {
				t.Errorf("insert event = %+v, want N=3 at the buffer clock 30", ev)
			}
		}
	}
	if n := kindCounts(rec); inserts != 1 || n[tracez.KindRelease] != 2 || n[tracez.KindKSet] != 1 {
		t.Errorf("after one Sync: %d insert events, counts %v", inserts, n)
	}
	before := rec.Len()
	h.Sync()
	if rec.Len() != before {
		t.Error("a Sync with nothing new recorded events")
	}
	out = h.Flush(out[:0])
	h.Sync()
	if rec.Len() == before || len(out) != 1 {
		t.Errorf("flush released %d tuples, recorder grew by %d", len(out), rec.Len()-before)
	}

	if h.K() != inner.K() || h.Len() != inner.Len() || h.Stats() != inner.Stats() {
		t.Error("forwarders disagree with the wrapped handler")
	}
	if h.String() != inner.String() {
		t.Errorf("String() = %q, want %q", h.String(), inner.String())
	}
	if h.Unwrap() != Handler(inner) {
		t.Error("Unwrap did not return the wrapped handler")
	}
}
