package window

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/stream"
)

// Observe feeds one tuple, appending emitted per-key results to out: one
// tuple of ObserveRun.
func (o *KeyedOp) Observe(t stream.Tuple, now stream.Time, out []KeyedResult) []KeyedResult {
	o.observe(t, now)
	return o.Drain(out)
}

// keyedByIdx indexes keyed results by (key, window index), refinements
// overwriting primaries.
func keyedByIdx(rs []KeyedResult) map[[2]uint64]KeyedResult {
	m := make(map[[2]uint64]KeyedResult, len(rs))
	for _, r := range rs {
		m[[2]uint64{r.Key, uint64(r.Idx)}] = r
	}
	return m
}

func kmk(ts stream.Time, key uint64, v float64) stream.Tuple {
	return stream.Tuple{TS: ts, Arrival: ts, Key: key, Value: v}
}

func TestKeyedOpSeparatesKeys(t *testing.T) {
	op := NewKeyedOp(Spec{Size: 10, Slide: 10}, Sum(), DropLate, 0)
	var out []KeyedResult
	out = op.Observe(kmk(1, 1, 10), 1, out)
	out = op.Observe(kmk(2, 2, 100), 2, out)
	out = op.Observe(kmk(15, 1, 1), 15, out) // closes window 0 for both keys
	out = op.Flush(20, out)
	byIdx := keyedByIdx(out)
	if r := byIdx[[2]uint64{1, 0}]; r.Value != 10 {
		t.Fatalf("key 1 window 0 = %+v", r)
	}
	if r := byIdx[[2]uint64{2, 0}]; r.Value != 100 {
		t.Fatalf("key 2 window 0 = %+v", r)
	}
	if len(op.ops) != 2 {
		t.Fatalf("Keys = %d", len(op.ops))
	}
}

func TestKeyedOpSharedClockClosesOtherKeys(t *testing.T) {
	op := NewKeyedOp(Spec{Size: 10, Slide: 10}, Count(), DropLate, 0)
	var out []KeyedResult
	out = op.Observe(kmk(5, 1, 1), 5, out)
	// Key 2's tuple advances the shared clock past key 1's window end.
	out = op.Observe(kmk(25, 2, 1), 25, out)
	found := false
	for _, r := range out {
		if r.Key == 1 && r.Idx == 0 {
			found = true
			if r.Count != 1 {
				t.Fatalf("key 1 window 0 count = %d", r.Count)
			}
		}
	}
	if !found {
		t.Fatalf("key 1's window not closed by key 2's clock advance: %v", out)
	}
}

func TestKeyedOpMatchesPerKeyOracle(t *testing.T) {
	rng := stats.NewRNG(701)
	spec := Spec{Size: 20, Slide: 5}
	f := func(n uint8) bool {
		tuples := make([]stream.Tuple, int(n%120)+1)
		for i := range tuples {
			ts := stream.Time(rng.Intn(200))
			tuples[i] = stream.Tuple{
				TS: ts, Arrival: ts, Seq: uint64(i),
				Key: uint64(rng.Intn(4)), Value: rng.Float64Range(0, 10),
			}
		}
		got := keyedByIdx(KeyedOracle(spec, Sum(), tuples))
		// Brute force per key/window.
		for k, r := range got {
			key, idx := k[0], int64(k[1])
			lo, hi := spec.Bounds(idx)
			var want float64
			for _, tp := range tuples {
				if tp.Key == key && tp.TS >= lo && tp.TS < hi {
					want += tp.Value
				}
			}
			if math.Abs(r.Value-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedOpStatsAggregate(t *testing.T) {
	op := NewKeyedOp(Spec{Size: 10, Slide: 10}, Sum(), DropLate, 0)
	var out []KeyedResult
	out = op.Observe(kmk(5, 1, 1), 5, out)
	out = op.Observe(kmk(25, 2, 1), 25, out)
	// Late for key 1's emitted window 0.
	out = op.Observe(stream.Tuple{TS: 7, Arrival: 26, Key: 1, Value: 5}, 26, out)
	s := op.Stats()
	if s.TuplesIn != 3 {
		t.Fatalf("TuplesIn = %d", s.TuplesIn)
	}
	if s.LateTuples != 1 || s.LateDrops != 1 {
		t.Fatalf("late counters: %+v", s)
	}
	_ = out
}

func TestKeyedOpPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewKeyedOp(Spec{Size: 0, Slide: 1}, Sum(), DropLate, 0)
}

func TestKeyedOracleZeroLatency(t *testing.T) {
	tuples := []stream.Tuple{kmk(5, 1, 1), kmk(25, 2, 1)}
	for _, r := range KeyedOracle(Spec{Size: 10, Slide: 10}, Sum(), tuples) {
		if r.Latency() != 0 {
			t.Fatalf("oracle latency %d", r.Latency())
		}
	}
}
