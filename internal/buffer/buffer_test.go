package buffer

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/stream"
)

// eventTimeSorted reports whether tuples are non-decreasing in event time.
func eventTimeSorted(ts []stream.Tuple) bool {
	return slices.IsSortedFunc(ts, func(a, b stream.Tuple) int { return cmp.Compare(a.TS, b.TS) })
}

func feed(h Handler, tuples []stream.Tuple) []stream.Tuple {
	var out []stream.Tuple
	for _, t := range tuples {
		out = h.Insert(stream.DataItem(t), out)
	}
	return h.Flush(out)
}

func mkTuples(pairs ...stream.Time) []stream.Tuple {
	// pairs are (ts, arrival) in arrival order.
	ts := make([]stream.Tuple, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		ts = append(ts, stream.Tuple{TS: pairs[i], Arrival: pairs[i+1], Seq: uint64(i / 2)})
	}
	return ts
}

func TestKSlackReordersWithinSlack(t *testing.T) {
	// Arrival order: 10, 30, 20. With K=15 the buffer can reorder 20
	// before 30's release.
	in := mkTuples(10, 10, 30, 31, 20, 32)
	out := feed(NewKSlack(15), in)
	if len(out) != 3 {
		t.Fatalf("released %d tuples, want 3", len(out))
	}
	if !eventTimeSorted(out) {
		t.Fatalf("K-slack output out of order: %v", out)
	}
}

func TestKSlackZeroIsPassThrough(t *testing.T) {
	in := mkTuples(10, 10, 30, 11, 20, 12)
	h := Zero()
	var out []stream.Tuple
	for _, tp := range in {
		n := len(out)
		out = h.Insert(stream.DataItem(tp), out)
		if len(out) != n+1 {
			t.Fatalf("K=0 buffered a tuple: released %d after insert", len(out)-n)
		}
	}
	if got := h.Stats().Stragglers; got != 1 {
		t.Fatalf("stragglers = %d, want 1 (ts=20 after ts=30)", got)
	}
}

func TestKSlackHoldsExactlyK(t *testing.T) {
	// With K=10, tuple ts=100 is released once clock reaches 110.
	h := NewKSlack(10)
	var out []stream.Tuple
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 100, Arrival: 100}), out)
	if len(out) != 0 {
		t.Fatal("tuple released before slack elapsed")
	}
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 109, Arrival: 109, Seq: 1}), out)
	if len(out) != 0 {
		t.Fatalf("released at clock=109 with K=10: %v", out)
	}
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 110, Arrival: 110, Seq: 2}), out)
	// clock=110, K=10 -> release ts <= 100: exactly the ts=100 tuple.
	if len(out) != 1 || out[0].TS != 100 {
		t.Fatalf("wrong release at clock 110: %v", out)
	}
}

func TestKSlackHeartbeatAdvancesClock(t *testing.T) {
	h := NewKSlack(5)
	var out []stream.Tuple
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 100, Arrival: 100}), out)
	if len(out) != 0 {
		t.Fatal("premature release")
	}
	out = h.Insert(stream.HeartbeatItem(105), out)
	if len(out) != 1 || out[0].TS != 100 {
		t.Fatalf("heartbeat did not trigger release: %v", out)
	}
	// A heartbeat must never rewind the clock.
	out = out[:0]
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 101, Arrival: 106, Seq: 1}), out)
	out = h.Insert(stream.HeartbeatItem(50), out)
	out = h.Insert(stream.HeartbeatItem(106), out)
	if len(out) != 1 || out[0].TS != 101 {
		t.Fatalf("clock handling around stale heartbeat wrong: %v", out)
	}
}

func TestKSlackFlushReleasesAllSorted(t *testing.T) {
	in := mkTuples(50, 50, 10, 51, 40, 52, 30, 53)
	h := NewKSlack(1000) // nothing releases before flush
	var out []stream.Tuple
	for _, tp := range in {
		out = h.Insert(stream.DataItem(tp), out)
	}
	if len(out) != 0 {
		t.Fatal("released despite huge K")
	}
	if h.Len() != 4 {
		t.Fatalf("Len = %d, want 4", h.Len())
	}
	out = h.Flush(out)
	if len(out) != 4 || !eventTimeSorted(out) {
		t.Fatalf("flush output: %v", out)
	}
	if h.Len() != 0 {
		t.Fatal("buffer not empty after flush")
	}
}

func TestKSlackSetK(t *testing.T) {
	h := NewKSlack(100)
	var out []stream.Tuple
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 10, Arrival: 10}), out)
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 50, Arrival: 50, Seq: 1}), out)
	if len(out) != 0 {
		t.Fatal("premature release")
	}
	h.SetK(5)
	if h.K() != 5 {
		t.Fatalf("K = %d after SetK(5)", h.K())
	}
	// Next heartbeat at the same clock should drain ts <= 45.
	out = h.Insert(stream.HeartbeatItem(50), out)
	if len(out) != 1 || out[0].TS != 10 {
		t.Fatalf("SetK drain wrong: %v", out)
	}
	h.SetK(-3)
	if h.K() != 0 {
		t.Fatalf("negative SetK not clamped: %d", h.K())
	}
}

func TestNewKSlackPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative K did not panic")
		}
	}()
	NewKSlack(-1)
}

func TestConservationProperty(t *testing.T) {
	// Every inserted tuple comes out exactly once, for every handler.
	rng := stats.NewRNG(201)
	mk := func() []Handler {
		return []Handler{
			Zero(), NewKSlack(7), NewKSlack(1000), NewMaxSlack(), NewPercentile(0.9, 16),
		}
	}
	f := func(n uint8, seed uint16) bool {
		c := gen.Config{
			N: int(n%200) + 1, Interval: 3, Poisson: true,
			Delays: nil, Seed: uint64(seed),
		}
		tuples := c.Arrivals()
		// Inject synthetic disorder by shuffling arrivals slightly.
		for i := range tuples {
			tuples[i].Arrival = tuples[i].TS + stream.Time(rng.Intn(30))
		}
		stream.SortByArrival(tuples)
		for _, h := range mk() {
			out := feed(h, tuples)
			if len(out) != len(tuples) {
				return false
			}
			seen := make(map[uint64]bool, len(out))
			for _, tp := range out {
				if seen[tp.Seq] {
					return false
				}
				seen[tp.Seq] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeKSlackFullySorts(t *testing.T) {
	// K larger than the max possible lateness ⇒ output is perfectly
	// event-time sorted with zero stragglers.
	c := gen.Sensor(5000, 7)
	tuples := c.Arrivals()
	h := NewKSlack(1 << 40)
	out := feed(h, tuples)
	if !eventTimeSorted(out) {
		t.Fatal("huge K output unsorted")
	}
	if h.Stats().Stragglers != 0 {
		t.Fatalf("stragglers with huge K: %d", h.Stats().Stragglers)
	}
}

func TestMaxSlackAdaptsToObservedLateness(t *testing.T) {
	// Lateness 0 then a tuple 50 late: K should become >= 50.
	in := mkTuples(100, 100, 200, 200, 150, 201)
	h := NewMaxSlack()
	feed(h, in)
	if h.K() < 50 {
		t.Fatalf("MaxSlack K = %d, want >= 50", h.K())
	}
}

func TestMaxSlackEventuallyNoStragglers(t *testing.T) {
	// On a stationary bounded-delay stream, MaxSlack stragglers stop
	// growing after warm-up: feed the same distribution twice and compare.
	c := gen.Config{N: 20000, Interval: 5, Delays: nil, Seed: 9}
	tuples := c.Arrivals()
	rng := stats.NewRNG(11)
	for i := range tuples {
		tuples[i].Arrival = tuples[i].TS + stream.Time(rng.Intn(200)) // bounded delay < 200
	}
	stream.SortByArrival(tuples)
	h := NewMaxSlack()
	var out []stream.Tuple
	half := len(tuples) / 2
	for _, tp := range tuples[:half] {
		out = h.Insert(stream.DataItem(tp), out)
	}
	warmup := h.Stats().Stragglers
	for _, tp := range tuples[half:] {
		out = h.Insert(stream.DataItem(tp), out)
	}
	if after := h.Stats().Stragglers; after != warmup {
		t.Fatalf("MaxSlack forwarded stragglers after warm-up: %d -> %d", warmup, after)
	}
}

func TestPercentileTracksLatenessQuantile(t *testing.T) {
	// Uniform lateness in [0, 100): p=0.9 should settle near 90.
	c := gen.Config{N: 30000, Interval: 1, Seed: 13}
	tuples := c.Arrivals()
	rng := stats.NewRNG(17)
	for i := range tuples {
		tuples[i].Arrival = tuples[i].TS + stream.Time(rng.Intn(100))
	}
	stream.SortByArrival(tuples)
	h := NewPercentile(0.9, 500)
	feed(h, tuples)
	if k := h.K(); k < 60 || k > 120 {
		t.Fatalf("percentile slack = %d, want near 90", k)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewPercentile(0, 10) },
		func() { NewPercentile(1.5, 10) },
		func() { NewPercentile(0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestStatsCounters(t *testing.T) {
	in := mkTuples(10, 10, 30, 11, 20, 12)
	h := NewKSlack(5)
	out := feed(h, in)
	s := h.Stats()
	if s.Inserted != 3 || s.Released != int64(len(out)) {
		t.Fatalf("stats: %+v, released %d", s, len(out))
	}
	if s.MaxHeld < 1 {
		t.Fatalf("MaxHeld = %d", s.MaxHeld)
	}
	if !strings.Contains(s.String(), "in=3") {
		t.Fatalf("Stats.String = %q", s.String())
	}
}

func TestHandlerStrings(t *testing.T) {
	for _, h := range []Handler{Zero(), NewKSlack(3), NewMaxSlack(), NewPercentile(0.5, 10)} {
		if h.String() == "" {
			t.Errorf("%T has empty String", h)
		}
	}
}

func TestHeapPropertyRandomized(t *testing.T) {
	// The internal ordered ring must always pop in (TS, Seq) order, under
	// interleaved pushes and pops so the head-compaction paths run too.
	rng := stats.NewRNG(23)
	f := func(n uint8) bool {
		var h tupleRing
		count := int(n%100) + 1
		for i := 0; i < count; i++ {
			h.push(stream.Tuple{TS: stream.Time(rng.Intn(20)), Seq: uint64(i)})
			if rng.Intn(3) == 0 && h.len() > 1 {
				// Interleaved pops may release ahead of later pushes; only
				// the final drain below must be globally ordered.
				h.pop()
			}
		}
		prev := stream.Tuple{TS: -1}
		for h.len() > 0 {
			cur := h.pop()
			if cur.TS < prev.TS || (cur.TS == prev.TS && cur.Seq < prev.Seq) {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRingCompaction(t *testing.T) {
	// A long alternating push/pop run must not grow the backing array
	// without bound: the dead prefix is reclaimed once it dominates.
	var h tupleRing
	for i := 0; i < 10_000; i++ {
		h.push(stream.Tuple{TS: stream.Time(i), Seq: uint64(i)})
		if i >= 10 {
			if got := h.pop(); got.TS != stream.Time(i-10) {
				t.Fatalf("pop %d: got TS %d, want %d", i, got.TS, i-10)
			}
		}
	}
	if cap(h.buf) > 1024 {
		t.Fatalf("backing array grew to %d for an 11-tuple working set", cap(h.buf))
	}
}

func TestRingRestoreFromHeapOrder(t *testing.T) {
	// Snapshots written by the old min-heap implementation hold a heap
	// array, not a sorted one; restore must accept any order.
	var h tupleRing
	h.restore([]stream.Tuple{{TS: 5, Seq: 4}, {TS: 9, Seq: 1}, {TS: 7, Seq: 0}, {TS: 5, Seq: 2}})
	want := []struct {
		ts  stream.Time
		seq uint64
	}{{5, 2}, {5, 4}, {7, 0}, {9, 1}}
	for _, w := range want {
		got := h.pop()
		if got.TS != w.ts || got.Seq != w.seq {
			t.Fatalf("pop: got (%d,%d), want (%d,%d)", got.TS, got.Seq, w.ts, w.seq)
		}
	}
	if h.len() != 0 {
		t.Fatalf("ring not empty after restore+drain: %d left", h.len())
	}
}

func TestDuplicateTimestamps(t *testing.T) {
	// Equal event times must all be preserved and emitted in seq order.
	in := []stream.Tuple{
		{TS: 10, Arrival: 10, Seq: 0},
		{TS: 10, Arrival: 11, Seq: 1},
		{TS: 10, Arrival: 12, Seq: 2},
		{TS: 20, Arrival: 13, Seq: 3},
	}
	out := feed(NewKSlack(100), in)
	if len(out) != 4 {
		t.Fatalf("lost duplicates: %v", out)
	}
	for i, want := range []uint64{0, 1, 2, 3} {
		if out[i].Seq != want {
			t.Fatalf("duplicate order wrong: %v", out)
		}
	}
}
