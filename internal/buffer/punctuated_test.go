package buffer

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/stream"
)

func TestPunctuatedReleasesOnlyOnWatermarks(t *testing.T) {
	h := NewPunctuated()
	var out []stream.Tuple
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 10, Arrival: 10}), out)
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 30, Arrival: 11, Seq: 1}), out)
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 20, Arrival: 12, Seq: 2}), out)
	if len(out) != 0 {
		t.Fatalf("released before any watermark: %v", out)
	}
	out = h.Insert(stream.HeartbeatItem(20), out)
	if len(out) != 2 || out[0].TS != 10 || out[1].TS != 20 {
		t.Fatalf("watermark release wrong: %v", out)
	}
	out = h.Insert(stream.HeartbeatItem(100), out)
	if len(out) != 3 || out[2].TS != 30 {
		t.Fatalf("second watermark release wrong: %v", out)
	}
}

func TestPunctuatedViolationForwardsImmediately(t *testing.T) {
	h := NewPunctuated()
	var out []stream.Tuple
	out = h.Insert(stream.HeartbeatItem(100), out)
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 50, Arrival: 200}), out)
	if len(out) != 1 {
		t.Fatalf("violating tuple not forwarded: %v", out)
	}
	if h.Stats().Stragglers != 0 {
		// First release ever: nothing released before it, so it is not
		// an order violation yet — but it must be counted once a later
		// tuple shows the inversion.
		t.Logf("stragglers=%d", h.Stats().Stragglers)
	}
}

func TestPunctuatedWithOracleWatermarksIsExact(t *testing.T) {
	tuples := gen.Sensor(20000, 55).Arrivals()
	items := gen.WithOracleWatermarks(tuples, 100)
	h := NewPunctuated()
	var out []stream.Tuple
	for _, it := range items {
		out = h.Insert(it, out)
	}
	out = h.Flush(out)
	if len(out) != len(tuples) {
		t.Fatalf("conservation violated: %d/%d", len(out), len(tuples))
	}
	if !eventTimeSorted(out) {
		t.Fatal("oracle punctuations still produced disorder")
	}
	if s := h.Stats().Stragglers; s != 0 {
		t.Fatalf("stragglers with oracle watermarks: %d", s)
	}
}

func TestPunctuatedStaleWatermarkIgnored(t *testing.T) {
	h := NewPunctuated()
	var out []stream.Tuple
	out = h.Insert(stream.HeartbeatItem(100), out)
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 150, Arrival: 150}), out)
	out = h.Insert(stream.HeartbeatItem(50), out) // stale: must not rewind
	if len(out) != 0 {
		t.Fatalf("stale watermark released: %v", out)
	}
	out = h.Insert(stream.HeartbeatItem(150), out)
	if len(out) != 1 {
		t.Fatalf("advancing watermark did not release: %v", out)
	}
}

func TestPunctuatedString(t *testing.T) {
	if s := NewPunctuated().String(); !strings.Contains(s, "punctuated") {
		t.Fatalf("String = %q", s)
	}
}

func TestWithOracleWatermarksPromiseHolds(t *testing.T) {
	// Property of the generator itself: after each heartbeat, no later
	// tuple has ts <= watermark.
	tuples := gen.CDR(5000, 56).Arrivals()
	items := gen.WithOracleWatermarks(tuples, 37)
	for i, it := range items {
		if !it.Heartbeat {
			continue
		}
		for _, later := range items[i+1:] {
			if !later.Heartbeat && later.Tuple.TS <= it.Watermark {
				t.Fatalf("watermark %d violated by later tuple ts=%d", it.Watermark, later.Tuple.TS)
			}
		}
	}
}
