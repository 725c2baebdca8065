package oracle

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/window"
)

func res(idx int64, v float64) window.Result {
	return window.Result{Idx: idx, Start: stream.Time(idx) * 100, End: stream.Time(idx)*100 + 100, Value: v, Count: 1}
}

func TestSameOutputDetectsValueDrift(t *testing.T) {
	a := &cq.AggReport{Results: []window.Result{res(0, 1), res(1, 2)}, PreFlush: 2}
	b := &cq.AggReport{Results: []window.Result{res(0, 1), res(1, 2)}, PreFlush: 2}
	if err := SameOutput(a, b); err != nil {
		t.Fatalf("identical reports: %v", err)
	}
	b.Results[1].Value = math.Nextafter(2, 3)
	if err := SameOutput(a, b); err == nil {
		t.Fatal("1-ulp value drift not detected")
	}
	b.Results[1].Value = 2
	b.PreFlush = 1
	if err := SameOutput(a, b); err == nil || !strings.Contains(err.Error(), "preflush") {
		t.Fatalf("preflush drift: err = %v", err)
	}
}

func TestSameOutputTreatsNaNAsEqual(t *testing.T) {
	a := &cq.AggReport{Results: []window.Result{res(0, math.NaN())}}
	b := &cq.AggReport{Results: []window.Result{res(0, math.NaN())}}
	if err := SameOutput(a, b); err != nil {
		t.Fatalf("NaN == NaN must hold bitwise: %v", err)
	}
}

func TestSameOutputDetectsKeyedOrder(t *testing.T) {
	a := &cq.AggReport{Keyed: []window.KeyedResult{{Key: 1, Result: res(0, 1)}, {Key: 2, Result: res(0, 2)}}}
	b := &cq.AggReport{Keyed: []window.KeyedResult{{Key: 2, Result: res(0, 2)}, {Key: 1, Result: res(0, 1)}}}
	if err := SameOutput(a, b); err == nil {
		t.Fatal("keyed order swap not detected")
	}
}

func TestEquivalenceRejectsSheds(t *testing.T) {
	a := &cq.AggReport{Shed: 1}
	b := &cq.AggReport{}
	if err := Equivalence(a, b); err == nil {
		t.Fatal("sheds in a no-shed plan must fail")
	}
}

func TestLatencyNotWorse(t *testing.T) {
	tight := metrics.LatencyReport{Results: 50, Mean: 100}
	if err := LatencyNotWorse(tight, metrics.LatencyReport{Results: 50, Mean: 90}, 0); err != nil {
		t.Fatalf("improvement flagged: %v", err)
	}
	if err := LatencyNotWorse(tight, metrics.LatencyReport{Results: 50, Mean: 104}, 5); err != nil {
		t.Fatalf("within tolerance flagged: %v", err)
	}
	if err := LatencyNotWorse(tight, metrics.LatencyReport{Results: 50, Mean: 120}, 5); err == nil {
		t.Fatal("latency regression not detected")
	}
	// Too few results: vacuous pass, not a crash.
	if err := LatencyNotWorse(metrics.LatencyReport{Results: 2, Mean: 1}, metrics.LatencyReport{Results: 2, Mean: 99}, 0); err != nil {
		t.Fatalf("sparse comparison must pass vacuously: %v", err)
	}
}

func TestPermuteEqualArrivalShufflesOnlyWithinSlots(t *testing.T) {
	mk := func(ts, arr stream.Time, seq, key uint64) stream.Item {
		return stream.DataItem(stream.Tuple{TS: ts, Arrival: arr, Seq: seq, Key: key, Value: float64(seq)})
	}
	items := []stream.Item{
		mk(10, 20, 0, 1), mk(10, 20, 1, 1), mk(10, 20, 2, 1), // slot A
		mk(10, 20, 3, 2),                   // same (TS,Arr), different key: own slot
		stream.HeartbeatItem(20),           // breaks runs
		mk(10, 20, 4, 1),                   // after heartbeat: new run
		mk(30, 40, 5, 1), mk(30, 40, 6, 1), // slot B
	}
	var perm []stream.Item
	for seed := uint64(0); seed < 32; seed++ {
		perm = PermuteEqualArrival(items, seed)
		if len(perm) != len(items) {
			t.Fatalf("length changed: %d", len(perm))
		}
		for i, it := range perm {
			base := items[i]
			if it.Heartbeat != base.Heartbeat {
				t.Fatalf("seed %d: heartbeat moved (pos %d)", seed, i)
			}
			if it.Heartbeat {
				continue
			}
			if it.Tuple.TS != base.Tuple.TS || it.Tuple.Arrival != base.Tuple.Arrival || it.Tuple.Key != base.Tuple.Key {
				t.Fatalf("seed %d: pos %d left its slot: %v -> %v", seed, i, base, it)
			}
		}
		// The singleton slots can never move.
		for _, i := range []int{3, 5} {
			if perm[i].Tuple.Seq != items[i].Tuple.Seq {
				t.Fatalf("seed %d: singleton slot at %d moved", seed, i)
			}
		}
	}
	// Some seed must actually permute slot A (probability of 32 identity
	// draws of S3 is (1/6)^32).
	changed := false
	for seed := uint64(0); seed < 32 && !changed; seed++ {
		p := PermuteEqualArrival(items, seed)
		changed = p[0].Tuple.Seq != 0 || p[1].Tuple.Seq != 1 || p[2].Tuple.Seq != 2
	}
	if !changed {
		t.Fatal("no seed permuted a 3-tuple slot")
	}
}

func TestExactUnderInfiniteKMatchesOracleShape(t *testing.T) {
	spec := window.Spec{Size: 100, Slide: 100}
	in := []stream.Tuple{
		{TS: 10, Arrival: 10, Seq: 0, Value: 1},
		{TS: 110, Arrival: 120, Seq: 1, Value: 2},
	}
	rep := &cq.AggReport{Input: in}
	rep.Results = window.Oracle(spec, window.Sum(), in)
	if err := ExactUnderInfiniteK(rep, spec, window.Sum(), false); err != nil {
		t.Fatalf("oracle-equal report rejected: %v", err)
	}
	rep.Results[0].Value++
	if err := ExactUnderInfiniteK(rep, spec, window.Sum(), false); err == nil {
		t.Fatal("value drift vs oracle not detected")
	}
}

// TestSmallestKMatchesBruteForce: the bisection finds what a sweep of the
// same grid finds — the first grid K at which the predicate holds — for a
// step at every grid point and between them, for a predicate that never
// holds (the ceiling fails) and for one that always does (K = 0), and it
// evaluates the predicate only O(log n) times.
func TestSmallestKMatchesBruteForce(t *testing.T) {
	const step, ceiling = 50, 30 * stream.Second
	sweep := func(holds func(stream.Time) bool) (stream.Time, bool) {
		for k := stream.Time(0); k <= ceiling; k += step {
			if holds(k) {
				return k, true
			}
		}
		return 0, false
	}
	check := func(name string, holds func(stream.Time) bool) {
		t.Helper()
		calls := 0
		got, ok := SmallestK(step, ceiling, func(k stream.Time) bool {
			if k < 0 || k > ceiling || k%step != 0 {
				t.Fatalf("%s: probed %d, off the grid", name, k)
			}
			calls++
			return holds(k)
		})
		want, wantOK := sweep(holds)
		if got != want || ok != wantOK {
			t.Fatalf("%s: SmallestK = %d, %v; the sweep finds %d, %v", name, got, ok, want, wantOK)
		}
		if calls > 12 { // the top point, then ⌈log2 600⌉ = 10 bisection steps
			t.Fatalf("%s: %d evaluations", name, calls)
		}
	}
	for at := stream.Time(0); at <= ceiling+step; at += 25 {
		check(fmt.Sprintf("step at %d", at), func(k stream.Time) bool { return k >= at })
	}
	check("never", func(stream.Time) bool { return false })
	check("always", func(stream.Time) bool { return true })
}
