package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// TestAQKSlackTraceBounded: the adaptation trace is a ring of the last
// traceCap samples, oldest first, however long the handler lives.
func TestAQKSlackTraceBounded(t *testing.T) {
	for name, h := range map[string]*AQKSlack{
		"loss":   NewAQKSlack(defaultCfg(0.02)),
		"recall": NewAQJoin(JoinConfig{Recall: 0.99, Band: 500}),
	} {
		const extra = 1000
		for i := 0; i < traceCap+extra; i++ {
			h.record(KSample{At: stream.Time(i)})
			if i == traceCap-1 {
				if tr := h.Trace(); len(tr) != traceCap || tr[0].At != 0 {
					t.Fatalf("%s: full, unwrapped trace: %d samples from At=%d", name, len(tr), tr[0].At)
				}
			}
		}
		tr := h.Trace()
		if len(tr) != traceCap || cap(h.trace) > 2*traceCap {
			t.Fatalf("%s: trace holds %d samples (cap %d), want %d", name, len(tr), cap(h.trace), traceCap)
		}
		for i, s := range tr {
			if s.At != stream.Time(extra+i) {
				t.Fatalf("%s: sample %d has At=%d, want %d: not the latest, oldest first", name, i, s.At, extra+i)
			}
		}
	}
}

// TestAQKSlackExtremeDisorder feeds a stream where event times are almost
// random relative to arrivals — the handler must stay sane (no panic,
// conservation, K within bounds).
func TestAQKSlackExtremeDisorder(t *testing.T) {
	cfg := defaultCfg(0.05)
	h := NewAQKSlack(cfg)
	c := gen.Config{N: 30000, Interval: 10, Seed: 82}
	tuples := c.Events()
	// Scramble arrivals: delays uniform over a full minute.
	rng := stats.NewRNG(83)
	for i := range tuples {
		tuples[i].Arrival = tuples[i].TS + stream.Time(rng.Intn(60000))
	}
	stream.SortByArrival(tuples)
	var out []stream.Tuple
	for _, tp := range tuples {
		out = h.Insert(stream.DataItem(tp), out)
	}
	out = h.Flush(out)
	if len(out) != len(tuples) {
		t.Fatalf("conservation violated under extreme disorder: %d/%d", len(out), len(tuples))
	}
	if h.K() < 0 || h.K() > h.kMax() {
		t.Fatalf("K out of bounds: %d", h.K())
	}
}

// TestAQKSlackDuplicateTimestamps: bursts of equal event timestamps must
// not break the shadow accounting.
func TestAQKSlackDuplicateTimestamps(t *testing.T) {
	cfg := defaultCfg(0.05)
	h := NewAQKSlack(cfg)
	var out []stream.Tuple
	seq := uint64(0)
	for block := stream.Time(0); block < 200; block++ {
		ts := block * 500
		for i := 0; i < 20; i++ { // 20 tuples with the same event time
			out = h.Insert(stream.DataItem(stream.Tuple{
				TS: ts, Arrival: ts + stream.Time(i), Seq: seq, Value: 1,
			}), out)
			seq++
		}
	}
	out = h.Flush(out)
	if len(out) != int(seq) {
		t.Fatalf("duplicates lost: %d/%d", len(out), seq)
	}
}

// TestAQKSlackStalledSourceHeartbeats: during a long source stall, only
// heartbeats arrive; the handler must keep draining and adapting without
// data.
func TestAQKSlackStalledSourceHeartbeats(t *testing.T) {
	cfg := defaultCfg(0.02)
	h := NewAQKSlack(cfg)
	var out []stream.Tuple
	// Normal phase.
	for _, tp := range gen.Sensor(5000, 84).Arrivals() {
		out = h.Insert(stream.DataItem(tp), out)
	}
	buffered := h.Len()
	// Stall: heartbeats only, advancing the clock far past everything.
	for i := 1; i <= 100; i++ {
		out = h.Insert(stream.HeartbeatItem(stream.Time(5000*10+i*1000)), out)
	}
	if h.Len() != 0 {
		t.Fatalf("heartbeats did not drain buffer: %d left (was %d)", h.Len(), buffered)
	}
}

// TestAQJoinStateBounded mirrors the shadow-state check for the join
// handler (its lateness histogram is at most ~7.4 k counters by
// construction, so we only verify the buffer itself drains).
func TestAQJoinStateBounded(t *testing.T) {
	all, _, _ := twoStreams(20000, 85)
	aq := NewAQJoin(JoinConfig{Recall: 0.95, Band: 500})
	var out []stream.Tuple
	for _, tp := range all {
		out = aq.Insert(stream.DataItem(tp), out[:0])
		if aq.Len() > 100000 {
			t.Fatalf("join buffer grew unboundedly: %d", aq.Len())
		}
	}
}

// TestEstimatorConstantValues: zero-variance values must not produce NaN
// estimates.
func TestEstimatorConstantValues(t *testing.T) {
	e := NewEstimator(window.Spec{Size: 1000, Slide: 1000}, window.Avg(), EstimatorConfig{Seed: 86})
	for i := 0; i < 1000; i++ {
		e.ObserveTuple(float64(i%100), 42)
	}
	e.ObserveWindowCount(50)
	for _, p := range []float64{0, 0.1, 0.5, 0.99} {
		got := e.LossCurve().Err(p)
		if got != got { // NaN
			t.Fatalf("NaN estimate at p=%v", p)
		}
	}
}

// TestAQKSlackInsertAllocations: in steady state the handler allocates per
// adaptation (shadow windows) and per refresh (the sweep's aggregates),
// never per tuple. Each measured run spans 80 adaptations and 10 refreshes.
func TestAQKSlackInsertAllocations(t *testing.T) {
	const warm, chunk, runs = 50000, 8000, 5
	h := NewAQKSlack(defaultCfg(0.01))
	tuples := sensorTuples(warm+(runs+1)*chunk, 87)
	var out []stream.Tuple
	next := 0
	feed := func(n int) {
		for _, tp := range tuples[next : next+n] {
			out = h.Insert(stream.DataItem(tp), out[:0])
		}
		next += n
	}
	feed(warm)
	before := h.Quality().Adaptations
	perTuple := testing.AllocsPerRun(runs, func() { feed(chunk) }) / chunk
	if got := h.Quality().Adaptations - before; got < runs*chunk/100 {
		t.Fatalf("test setup: %d adaptations in the measured runs", got)
	}
	if perTuple >= 0.05 {
		t.Fatalf("steady-state Insert allocates %.3f times per tuple, want < 0.05", perTuple)
	}
	t.Logf("%.4f allocs/tuple", perTuple)
}
