package buffer_test

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/durable"
	"repro/internal/snapjson"
	"repro/internal/stats"
	"repro/internal/stream"
)

// legacyItems is the stream testdata/gk-percentile-state.json was cut from:
// 4 000 tuples 10 ms apart, each delayed by an exponential draw of mean
// 150 ms, in arrival order.
func legacyItems() []stream.Item {
	rng := stats.NewRNG(29)
	tuples := make([]stream.Tuple, 4000)
	for i := range tuples {
		ts := stream.Time(i) * 10
		tuples[i] = stream.Tuple{TS: ts, Arrival: ts + stream.Time(rng.ExpFloat64()*150), Seq: uint64(i), Value: rng.Float64() * 100}
	}
	stream.SortByArrival(tuples)
	items := make([]stream.Item, len(tuples))
	for i, tp := range tuples {
		items[i] = stream.DataItem(tp)
	}
	return items
}

// TestRestoresGKPercentileState: a Percentile state written while the buffer
// kept a Greenwald–Khanna sketch of lateness restores.
// testdata/gk-percentile-state.json holds, as durable.SaveHandler wrote it,
// the state of NewPercentile(0.95, 50) after the first 2 023 of legacyItems,
// recorded by that version: 281 summary entries and 22 values pending. It
// restores both directly and through durable.RestoreHandler, to the bit
// alike; the histogram holds every observation; and the restored handler
// continues to the bit beside a copy of itself restored from its own state.
func TestRestoresGKPercentileState(t *testing.T) {
	raw, err := os.ReadFile("testdata/gk-percentile-state.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Cut   int
		State json.RawMessage
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	var old durable.HandlerState
	if err := snapjson.Unmarshal(rec.State, &old); err != nil {
		t.Fatal(err)
	}
	gk := old.Percentile.Sketch
	if gk == nil || len(gk.Entries) == 0 || len(gk.Pending) == 0 {
		t.Fatalf("fixture holds no sketch with pending values: %+v", gk)
	}
	save := func(h *buffer.Percentile) []byte {
		t.Helper()
		b, err := snapjson.Marshal(h.State())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	a := buffer.NewPercentile(0.95, 50)
	a.Restore(*old.Percentile)
	b := buffer.NewPercentile(0.95, 50)
	if err := durable.RestoreHandler(b, &old); err != nil {
		t.Fatal(err)
	}
	st := save(a)
	if !bytes.Equal(st, save(b)) {
		t.Fatal("direct and durable restores of one state save differently")
	}
	var counted int64
	for _, c := range a.State().Hist.Counts {
		counted += c
	}
	if counted != int64(rec.Cut-1) || a.State().Sketch != nil {
		t.Fatalf("histogram counts %d observations of the %d tuples after the first (sketch carried: %v)",
			counted, rec.Cut-1, a.State().Sketch != nil)
	}
	if a.K() != old.Percentile.Slack.K {
		t.Fatalf("restored K %d, saved %d", a.K(), old.Percentile.Slack.K)
	}

	var cur buffer.PercentileState
	if err := snapjson.Unmarshal(st, &cur); err != nil {
		t.Fatal(err)
	}
	c := buffer.NewPercentile(0.95, 50)
	c.Restore(cur)
	var ks []stream.Time
	for i, it := range legacyItems()[rec.Cut:] {
		if got, want := c.Insert(it, nil), a.Insert(it, nil); !slices.Equal(got, want) || c.K() != a.K() {
			t.Fatalf("item %d: copy released %v at K %d, restored handler %v at K %d", rec.Cut+i, got, c.K(), want, a.K())
		}
		if len(ks) == 0 || ks[len(ks)-1] != a.K() {
			ks = append(ks, a.K())
		}
	}
	if got, want := c.Flush(nil), a.Flush(nil); len(ks) < 5 || !slices.Equal(got, want) || c.Stats() != a.Stats() {
		t.Fatalf("after %d slack changes the copy flushed %d tuples, the restored handler %d (stats %v, %v)",
			len(ks)-1, len(got), len(want), c.Stats(), a.Stats())
	}
}
