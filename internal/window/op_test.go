package window

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/stream"
)

func observeAll(op *Op, tuples []stream.Tuple) []Result {
	var out []Result
	var now stream.Time
	for _, t := range tuples {
		if t.Arrival > now {
			now = t.Arrival
		}
		out = op.Observe(t, now, out)
	}
	return op.Flush(now, out)
}

func mk(ts stream.Time, v float64) stream.Tuple {
	return stream.Tuple{TS: ts, Arrival: ts, Value: v}
}

func TestTumblingSum(t *testing.T) {
	op := NewOp(Spec{Size: 10, Slide: 10}, Sum(), DropLate, 0)
	in := []stream.Tuple{mk(1, 1), mk(5, 2), mk(12, 4), mk(25, 8)}
	out := observeAll(op, in)
	// Windows: [0,10)=3, [10,20)=4, [20,30)=8.
	if len(out) != 3 {
		t.Fatalf("emitted %d results: %v", len(out), out)
	}
	wantVals := []float64{3, 4, 8}
	for i, w := range wantVals {
		if out[i].Value != w {
			t.Fatalf("window %d value = %v, want %v", i, out[i].Value, w)
		}
	}
	if out[0].Start != 0 || out[0].End != 10 {
		t.Fatalf("window 0 bounds [%d,%d)", out[0].Start, out[0].End)
	}
}

func TestSlidingCountMultiplicity(t *testing.T) {
	// Size 10 slide 5: each interior tuple lands in 2 windows.
	op := NewOp(Spec{Size: 10, Slide: 5}, Count(), DropLate, 0)
	in := []stream.Tuple{mk(7, 1), mk(30, 1)}
	out := observeAll(op, in)
	byIdx := ResultsByIdx(out)
	// ts=7 is in windows [0,10) idx 0 and [5,15) idx 1.
	if byIdx[0].Count != 1 || byIdx[1].Count != 1 {
		t.Fatalf("ts=7 multiplicity wrong: %v", out)
	}
}

func TestEmptyWindowsEmitted(t *testing.T) {
	op := NewOp(Spec{Size: 10, Slide: 10}, Sum(), DropLate, 0)
	in := []stream.Tuple{mk(5, 1), mk(45, 2)} // windows 1..3 are empty
	out := observeAll(op, in)
	if len(out) != 5 {
		t.Fatalf("emitted %d results, want 5 (incl. empties): %v", len(out), out)
	}
	for _, idx := range []int64{1, 2, 3} {
		r := ResultsByIdx(out)[idx]
		if r.Count != 0 || r.Value != 0 {
			t.Fatalf("empty window %d: %+v", idx, r)
		}
	}
	if got := op.Stats().EmptyEmitted; got != 3 {
		t.Fatalf("EmptyEmitted = %d, want 3", got)
	}
}

func TestEmissionTriggeredByClock(t *testing.T) {
	op := NewOp(Spec{Size: 10, Slide: 10}, Sum(), DropLate, 0)
	var out []Result
	out = op.Observe(mk(5, 1), 5, out)
	if len(out) != 0 {
		t.Fatal("window emitted before its end passed")
	}
	out = op.Observe(mk(9, 1), 9, out)
	if len(out) != 0 {
		t.Fatal("window emitted at ts=9 < end=10")
	}
	out = op.Observe(mk(10, 1), 11, out)
	if len(out) != 1 || out[0].Idx != 0 || out[0].Value != 2 {
		t.Fatalf("window not emitted when clock hit end: %v", out)
	}
	if out[0].EmitArrival != 11 {
		t.Fatalf("EmitArrival = %d, want 11", out[0].EmitArrival)
	}
	if out[0].Latency() != 1 {
		t.Fatalf("Latency = %d, want 1", out[0].Latency())
	}
}

func TestAdvanceClosesWindows(t *testing.T) {
	op := NewOp(Spec{Size: 10, Slide: 10}, Count(), DropLate, 0)
	var out []Result
	out = op.Observe(mk(3, 1), 3, out)
	out = op.Advance(10, 20, out)
	if len(out) != 1 || out[0].Count != 1 || out[0].EmitArrival != 20 {
		t.Fatalf("Advance did not close window: %v", out)
	}
}

func TestAdvanceBeforeFirstTupleIsNoop(t *testing.T) {
	op := NewOp(Spec{Size: 10, Slide: 10}, Count(), DropLate, 0)
	if out := op.Advance(100, 100, nil); len(out) != 0 {
		t.Fatalf("Advance with no tuples emitted: %v", out)
	}
}

func TestLateTupleDropped(t *testing.T) {
	op := NewOp(Spec{Size: 10, Slide: 10}, Sum(), DropLate, 0)
	var out []Result
	out = op.Observe(mk(5, 1), 5, out)
	out = op.Observe(mk(12, 1), 12, out) // closes window 0
	n := len(out)
	out = op.Observe(stream.Tuple{TS: 7, Arrival: 13, Value: 100}, 13, out) // late for window 0
	if len(out) != n {
		t.Fatalf("late tuple produced output under DropLate: %v", out[n:])
	}
	s := op.Stats()
	if s.LateTuples != 1 || s.LateDrops != 1 {
		t.Fatalf("late counters: %+v", s)
	}
	// Window 0's emitted value must not include the late tuple.
	if out[0].Value != 1 {
		t.Fatalf("emitted value changed: %v", out[0])
	}
}

func TestLateTupleRefined(t *testing.T) {
	op := NewOp(Spec{Size: 10, Slide: 10}, Sum(), RefineLate, 1000)
	var out []Result
	out = op.Observe(mk(5, 1), 5, out)
	out = op.Observe(mk(12, 1), 12, out)
	out = op.Observe(stream.Tuple{TS: 7, Arrival: 13, Value: 100}, 13, out)
	var refinements []Result
	for _, r := range out {
		if r.Refinement {
			refinements = append(refinements, r)
		}
	}
	if len(refinements) != 1 {
		t.Fatalf("refinements = %v", refinements)
	}
	if refinements[0].Idx != 0 || refinements[0].Value != 101 {
		t.Fatalf("refined result: %+v", refinements[0])
	}
	s := op.Stats()
	if s.LateRefined != 1 || s.Refinements != 1 {
		t.Fatalf("refine counters: %+v", s)
	}
}

func TestRefineHorizonExpires(t *testing.T) {
	op := NewOp(Spec{Size: 10, Slide: 10}, Sum(), RefineLate, 5)
	var out []Result
	out = op.Observe(mk(5, 1), 5, out)
	out = op.Observe(mk(12, 1), 12, out) // window 0 emitted, retained until clock 10+5
	out = op.Observe(mk(30, 1), 30, out) // clock 30 -> window 0 state expired
	n := len(out)
	out = op.Observe(stream.Tuple{TS: 7, Arrival: 31, Value: 100}, 31, out)
	for _, r := range out[n:] {
		if r.Refinement {
			t.Fatalf("refined beyond horizon: %+v", r)
		}
	}
	if op.Stats().LateDrops == 0 {
		t.Fatal("expired late tuple not counted as dropped")
	}
}

func TestOracleMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(401)
	spec := Spec{Size: 20, Slide: 5}
	f := func(n uint8) bool {
		tuples := make([]stream.Tuple, int(n%150)+1)
		for i := range tuples {
			ts := stream.Time(rng.Intn(300))
			tuples[i] = stream.Tuple{TS: ts, Arrival: ts, Seq: uint64(i), Value: rng.Float64Range(0, 10)}
		}
		got := Oracle(spec, Sum(), tuples)
		byIdx := ResultsByIdx(got)
		// Brute force every emitted window.
		for idx, r := range byIdx {
			lo, hi := spec.Bounds(idx)
			var want float64
			var count int64
			for _, tp := range tuples {
				if tp.TS >= lo && tp.TS < hi {
					want += tp.Value
					count++
				}
			}
			if math.Abs(r.Value-want) > 1e-9 || r.Count != count {
				return false
			}
		}
		// Emitted indices must be contiguous.
		var min, max int64
		first := true
		for idx := range byIdx {
			if first {
				min, max, first = idx, idx, false
				continue
			}
			if idx < min {
				min = idx
			}
			if idx > max {
				max = idx
			}
		}
		return int64(len(byIdx)) == max-min+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleZeroLatency(t *testing.T) {
	tuples := []stream.Tuple{mk(5, 1), mk(25, 2)}
	for _, r := range Oracle(Spec{Size: 10, Slide: 10}, Sum(), tuples) {
		if r.Latency() != 0 {
			t.Fatalf("oracle latency %d for %v", r.Latency(), r)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	rs := []Result{
		{Idx: 0}, {Idx: 1}, {Idx: 1, Refinement: true}, {Idx: 2},
	}
	p := Primary(rs)
	if len(p) != 3 {
		t.Fatalf("Primary kept %d", len(p))
	}
	if s := rs[0].String(); !strings.Contains(s, "win#0") {
		t.Fatalf("Result.String = %q", s)
	}
}

func TestNewOpPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad spec did not panic")
		}
	}()
	NewOp(Spec{Size: 0, Slide: 1}, Sum(), DropLate, 0)
}

func TestLatePolicyString(t *testing.T) {
	if DropLate.String() != "drop" || RefineLate.String() != "refine" {
		t.Fatal("LatePolicy strings wrong")
	}
}

func TestOpWithDisorderedInputCountsLate(t *testing.T) {
	// End-to-end sanity: a tuple stream with substantial disorder, K=0
	// handling (none), must register late drops and value error vs oracle.
	rng := stats.NewRNG(405)
	var tuples []stream.Tuple
	for i := 0; i < 2000; i++ {
		ts := stream.Time(i * 3)
		tuples = append(tuples, stream.Tuple{
			TS: ts, Arrival: ts + stream.Time(rng.Intn(100)), Seq: uint64(i), Value: 1,
		})
	}
	stream.SortByArrival(tuples)
	op := NewOp(Spec{Size: 60, Slide: 60}, Count(), DropLate, 0)
	out := observeAll(op, tuples)
	if op.Stats().LateTuples == 0 {
		t.Fatal("disordered stream produced no late tuples at the operator")
	}
	oracle := ResultsByIdx(Oracle(Spec{Size: 60, Slide: 60}, Count(), tuples))
	lower := false
	for _, r := range Primary(out) {
		if o, ok := oracle[r.Idx]; ok && r.Value < o.Value {
			lower = true
			break
		}
	}
	if !lower {
		t.Fatal("late drops did not reduce any emitted count below oracle")
	}
}

// flakyAgg is a non-built-in aggregate (so it is fed by the ordered scan at
// emission) that panics the first *adds times Add runs and the first *values
// times Value does.
type flakyAgg struct {
	Aggregate
	adds, values *int
}

func (a flakyAgg) Add(v float64) {
	if *a.adds > 0 {
		*a.adds--
		panic("flaky Add")
	}
	a.Aggregate.Add(v)
}

func (a flakyAgg) Value() float64 {
	if *a.values > 0 {
		*a.values--
		panic("flaky Value")
	}
	return a.Aggregate.Value()
}

// TestEmissionPanicLosesNothing pins what a panic out of a non-built-in
// aggregate costs the operator: nothing. The tuple in flight is stored
// before a window is materialized and the emit cursor moves after, so a
// panic from Add (the scan) or Value (the result) leaves the window
// unemitted and every counter as it was; the next advance emits it. Whoever
// recovers the panic ends with the results and stats of a run that never
// panicked — empty windows included — apart from the emission position of
// the windows that were held up. (The input is in order: under disorder a
// window that is held up also takes in the tuples that would have been late
// for it, so the comparison would not be like for like.)
func TestEmissionPanicLosesNothing(t *testing.T) {
	spec := Spec{Size: 20, Slide: 5}
	tuples := genTuples(rand.New(rand.NewSource(3)), 800, 0)
	for i := range tuples { // a gap: empty windows are emitted, and must be counted once
		if tuples[i].TS > 900 {
			tuples[i].TS += 120
		}
	}
	for _, pol := range []LatePolicy{DropLate, RefineLate} {
		calm := NewOp(spec, Sum(), pol, 100)
		var want []Result
		for i, tp := range tuples {
			want = calm.Observe(tp, stream.Time(i), want)
		}
		want = calm.Flush(9999, want)

		adds, values, panics := 0, 0, 0
		flaky := Factory{Name: "flaky-sum", New: func() Aggregate {
			return flakyAgg{Aggregate: Sum().New(), adds: &adds, values: &values}
		}}
		op := NewOp(spec, flaky, pol, 100)
		var got []Result
		observe := func(tp stream.Tuple, now stream.Time) {
			defer func() {
				if recover() != nil {
					panics++
				}
			}()
			got = op.Observe(tp, now, got)
		}
		for i, tp := range tuples {
			switch i % 97 {
			case 13:
				adds = 1
			case 55:
				values = 1
			}
			observe(tp, stream.Time(i))
		}
		adds, values = 0, 0
		got = op.Flush(9999, got)
		if panics < 8 {
			t.Fatalf("%v: only %d emissions panicked; the test proves nothing", pol, panics)
		}
		if op.Stats() != calm.Stats() {
			t.Fatalf("%v: %d emission panics moved the counters: %+v, want %+v", pol, panics, op.Stats(), calm.Stats())
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d results after %d emission panics, want %d", pol, len(got), panics, len(want))
		}
		held := 0
		for i := range want {
			if got[i].EmitArrival != want[i].EmitArrival {
				held++
				got[i].EmitArrival = want[i].EmitArrival
			}
			if !resultsEqual(got[i], want[i]) {
				t.Fatalf("%v: result %d: %v, want %v", pol, i, got[i], want[i])
			}
		}
		if held == 0 {
			t.Fatalf("%v: no window was held up by a panic; the test proves nothing", pol)
		}
	}
}

// countdownAgg is a non-built-in sum whose Value panics on the *fuse-th call
// from now (0: never), and whose Add panics on one value every time.
type countdownAgg struct {
	Aggregate
	fuse   *int
	poison float64
}

func (a countdownAgg) Add(v float64) {
	if v == a.poison {
		panic("poisoned value")
	}
	a.Aggregate.Add(v)
}

func (a countdownAgg) Value() float64 {
	if *a.fuse > 0 {
		if *a.fuse--; *a.fuse == 0 {
			panic("flaky Value")
		}
	}
	return a.Aggregate.Value()
}

func countdownSum(fuse *int, poison float64) Factory {
	return Factory{Name: "countdown-sum", New: func() Aggregate {
		return countdownAgg{Aggregate: Sum().New(), fuse: fuse, poison: poison}
	}}
}

// recovered runs f and reports whether it panicked.
func recovered(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestPanicMidCallKeepsEarlierResults: one call can emit several results — a
// tuple behind a gap closes many windows, a late tuple refines every retained
// window it belongs to — and a panic on a later one must not take the earlier
// ones with it: the caller never gets the call's return value, so they wait in
// the operator for Drain (or the next call).
func TestPanicMidCallKeepsEarlierResults(t *testing.T) {
	spec := Spec{Size: 20, Slide: 5}
	fuse := 0
	op := NewOp(spec, countdownSum(&fuse, math.NaN()), RefineLate, 10000)
	calm := NewOp(spec, Sum(), RefineLate, 10000)
	var got, want []Result
	step := func(tp stream.Tuple, now stream.Time) (panicked bool) {
		want = calm.Observe(tp, now, want)
		return recovered(func() { got = op.Observe(tp, now, got) })
	}
	for i := 0; i < 50; i++ {
		if step(mk(stream.Time(i), float64(i+1)), stream.Time(i)) {
			t.Fatal("panic with the fuse out")
		}
	}
	before := len(got)
	fuse = 3 // the gap tuple closes windows 7…36: the third one's Value panics
	if !step(mk(200, 1), 60) {
		t.Fatal("the gap tuple's emission did not panic")
	}
	if len(got) != before {
		t.Fatal("the panicking call returned results")
	}
	if got = op.Drain(got); len(got) != before+2 {
		t.Fatalf("%d results drained after a panic on the third window closed, want the 2 emitted before it", len(got)-before)
	}
	if step(mk(201, 1), 61) { // emits the rest
		t.Fatal("panic with the fuse burnt")
	}
	if st, cs := op.Stats(), calm.Stats(); st != cs {
		t.Fatalf("stats %+v, a run without panics has %+v", st, cs)
	}

	before = len(got)
	fuse = 2 // TS 22 is late for windows 1…4, all retained: the second refinement panics
	if !step(mk(22, 7), 62) {
		t.Fatal("the late tuple's refinement did not panic")
	}
	if got = op.Drain(got); len(got) != before+1 || !got[before].Refinement || got[before].Idx != 1 {
		t.Fatalf("drained %v after a panic on the second refinement, want window 1's", got[before:])
	}
	// Everything up to and including that refinement is what the calm run has,
	// but for when the held-up windows came out.
	for i := range got {
		if got[i].EmitArrival = want[i].EmitArrival; !resultsEqual(got[i], want[i]) {
			t.Fatalf("result %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestPoisonedWindowIsGivenUp: a value a non-built-in aggregate chokes on
// every time may not stall the operator. Each window holding it is tried
// maxEmitTries times, then emitted as NaN with count 0 and counted; the rest
// of the stream is unaffected and the tree is evicted as usual.
func TestPoisonedWindowIsGivenUp(t *testing.T) {
	for _, spec := range []Spec{{Size: 10, Slide: 10}, {Size: 20, Slide: 5}} {
		fuse := 0
		op := NewOp(spec, countdownSum(&fuse, 666), DropLate, 0)
		calm := NewOp(spec, Sum(), DropLate, 0)
		var got, want []Result
		panics := 0
		for i := 0; i < 300; i++ {
			tp := mk(stream.Time(i), float64(i))
			if i == 42 {
				tp.Value = 666
			}
			want = calm.Observe(tp, tp.TS, want)
			if recovered(func() { got = op.Observe(tp, tp.TS, got) }) {
				panics++
			}
		}
		holding := int(spec.Size / spec.Slide)
		if st := op.Stats(); panics != holding*maxEmitTries || st.EmitFailed != int64(holding) ||
			st.TuplesIn != 300 || st.Emitted != calm.Stats().Emitted {
			t.Fatalf("%v: %d panics, stats %+v; want %d panics, %d windows given up, nothing else lost (calm: %+v)",
				spec, panics, st, holding*maxEmitTries, holding, calm.Stats())
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d results, want %d", spec, len(got), len(want))
		}
		for i := range want {
			first, last := spec.WindowsFor(42)
			if got[i].Idx >= first && got[i].Idx <= last {
				if !math.IsNaN(got[i].Value) || got[i].Count != 0 {
					t.Fatalf("%v: window %d holds the poison and came out as %v", spec, got[i].Idx, got[i])
				}
				continue
			}
			if got[i].EmitArrival = want[i].EmitArrival; !resultsEqual(got[i], want[i]) {
				t.Fatalf("%v: result %d: %v, want %v", spec, i, got[i], want[i])
			}
		}
		if n := op.fib.tree.Len(); n > int(spec.Size)+1 {
			t.Fatalf("%v: %d tuples left in the tree: the poisoned prefix was never evicted", spec, n)
		}
	}
}

// TestKeyedPanicKeepsOtherKeysResults: closing a window closes it for every
// key, in one call; a key whose aggregate panics must not cost the keys
// before it their results.
func TestKeyedPanicKeepsOtherKeysResults(t *testing.T) {
	fuse := 0
	op := NewKeyedOp(Spec{Size: 10, Slide: 10}, countdownSum(&fuse, math.NaN()), DropLate, 0)
	key := func(k uint64, ts stream.Time) stream.Tuple {
		return stream.Tuple{Key: k, TS: ts, Arrival: ts, Value: float64(k)}
	}
	var got []KeyedResult
	for k := uint64(1); k <= 3; k++ {
		got = op.Observe(key(k, stream.Time(k)), 5, got)
	}
	fuse = 2 // key 3's tuple closes window 0 for itself, then key 1, then key 2
	if !recovered(func() { got = op.Observe(key(3, 12), 12, got) }) || len(got) != 0 {
		t.Fatalf("no panic on the second key's emission (got %v)", got)
	}
	if got = op.Drain(got); len(got) != 1 || got[0].Key != 3 || got[0].Value != 3 {
		t.Fatalf("drained %v, want key 3's window 0", got)
	}
	got = op.Observe(key(3, 22), 22, got[:0]) // the next boundary emits what was held up
	var held []uint64
	for _, r := range got {
		if r.Idx == 0 && r.Value == float64(r.Key) {
			held = append(held, r.Key)
		}
	}
	if len(held) != 2 || held[0] != 1 || held[1] != 2 {
		t.Fatalf("after the panic: %v, want window 0 of keys 1 and 2 among them", got)
	}
}
