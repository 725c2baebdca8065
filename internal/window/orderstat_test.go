package window

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/snapjson"
	"repro/internal/stream"
)

// sameBits is the order-statistic tests' equality: every field of the two
// results, and the value bit for bit — a NaN equals only the same NaN.
func sameBits(a, b Result) bool {
	return a.Idx == b.Idx && a.Start == b.Start && a.End == b.End &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		a.Count == b.Count && a.EmitArrival == b.EmitArrival && a.Refinement == b.Refinement
}

func requireSameBits(t testing.TB, what string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d\nwant=%v\ngot=%v", what, len(got), len(want), want, got)
	}
	for i := range want {
		if !sameBits(want[i], got[i]) {
			t.Fatalf("%s: result %d: got %v (value bits %#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i].Value), want[i], math.Float64bits(want[i].Value))
		}
	}
}

// awkward are the payloads an order must be told about: both zeros, both
// infinities and NaN.
var awkward = []float64{math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), math.NaN()}

// orderStatStream is genTuples with what the order-statistic mode has to get
// right mixed in: a d-bounded shuffle wide enough to release tuples into
// panes that windows have already read, a gap of many windows in the middle
// (empty panes), and payloads with duplicates and, when asked, awkward ones.
func orderStatStream(rng *rand.Rand, n, d int, spec Spec, special bool) []stream.Tuple {
	tuples := genTuples(rng, n, d)
	gap := 3*spec.Size + 3
	for i := range tuples {
		if tuples[i].TS > stream.Time(n) {
			tuples[i].TS += gap
		}
		tuples[i].Value = float64(rng.Intn(40) - 20) // duplicates, often
		if rng.Intn(4) == 0 {
			tuples[i].Value += rng.Float64()
		}
		if special && rng.Intn(6) == 0 {
			tuples[i].Value = awkward[rng.Intn(len(awkward))]
		}
	}
	return tuples
}

var orderStatSpecs = []Spec{
	{Size: 20, Slide: 5},   // Size a multiple of Slide
	{Size: 10, Slide: 3},   // not a multiple: panes of width gcd = 1
	{Size: 30, Slide: 12},  // gcd 6, 5 panes, 2 per slide
	{Size: 7, Slide: 7},    // tumbling: one pane is the window
	{Size: 1000, Slide: 1}, // a thousand panes of a value or none
	{Size: 1, Slide: 1},    // one-tuple windows
}

func orderStatFactories() []Factory {
	return []Factory{Median(), Quantile(0.95), Quantile(0.01), Quantile(0.50), Quantile(0.99)}
}

// TestOrderStatisticsMatchReferenceFold holds the order-statistic mode to the
// per-window fold it replaced, step by step and bit for bit, and to the
// oracle where the two are defined to agree: on in-order delivery, and under
// RefineLate with an unbounded horizon once every refinement is in.
func TestOrderStatisticsMatchReferenceFold(t *testing.T) {
	for _, spec := range orderStatSpecs {
		wide := spec.Size/spec.Slide >= 100 // the reference fold adds every tuple to a thousand windows
		n := 600
		if wide {
			n = 250
		}
		for fi, f := range orderStatFactories() {
			if wide && fi > 1 {
				break // two quantiles do
			}
			for _, pol := range []LatePolicy{DropLate, RefineLate} {
				for _, disorder := range []int{0, 8, 60} {
					for _, special := range []bool{false, true} {
						what := fmt.Sprintf("%s %v %v disorder=%d special=%v", f.Name, spec, pol, disorder, special)
						rng := rand.New(rand.NewSource(int64(spec.Size)*131 + int64(spec.Slide)*17 + int64(disorder)))
						if wide && (disorder == 8 || !special) {
							continue
						}
						tuples := orderStatStream(rng, n, disorder, spec, special)
						horizon := stream.Time(100)
						if disorder == 60 {
							horizon = 1 << 40 // every refinement arrives: the oracle's values in the end
						}
						ref := newRefOp(spec, f, pol, horizon)
						op := NewOp(spec, f, pol, horizon)
						var want, got, all []Result
						for i, tp := range tuples {
							want = ref.Observe(tp, stream.Time(i), want[:0])
							got = op.Observe(tp, stream.Time(i), got[:0])
							requireSameBits(t, what, want, got)
							all = append(all, got...)
						}
						want = ref.Flush(9999, want[:0])
						got = op.Flush(9999, got[:0])
						requireSameBits(t, what+" flush", want, got)
						all = append(all, got...)
						if ref.stats != op.Stats() {
							t.Fatalf("%s: stats diverge: reference=%+v operator=%+v", what, ref.stats, op.Stats())
						}
						if pol == RefineLate && disorder == 60 {
							// (The operator's first window is the first arrival's,
							// the oracle's the earliest tuple's.)
							final := ResultsByIdx(all)
							for _, o := range Oracle(spec, f, tuples) {
								r, ok := final[o.Idx]
								if !ok && o.Idx < all[0].Idx {
									continue
								}
								if !ok || math.Float64bits(r.Value) != math.Float64bits(o.Value) || r.Count != o.Count {
									t.Fatalf("%s: window %d refined to %v, the oracle has %v", what, o.Idx, r, o)
								}
							}
						}
					}
				}
			}
			// In-order delivery: the primaries are the oracle's results.
			tuples := orderStatStream(rand.New(rand.NewSource(int64(spec.Size))), n, 30, spec, true)
			op := NewOp(spec, f, DropLate, 0)
			var got []Result
			for _, tp := range sortedCopy(spec, tuples) {
				got = op.Observe(tp, 0, got)
			}
			got = op.Flush(0, got)
			for i := range got {
				got[i].EmitArrival = got[i].End
			}
			requireSameBits(t, fmt.Sprintf("%s %v against the oracle", f.Name, spec), Oracle(spec, f, tuples), got)
		}
	}
}

// TestOrderStatRunsFollowTheTree checks the invariant the mode rests on:
// after every step, each pane that has a run holds exactly the tree's values
// for that pane.
func TestOrderStatRunsFollowTheTree(t *testing.T) {
	for _, spec := range orderStatSpecs[:4] {
		rng := rand.New(rand.NewSource(int64(spec.Size)))
		op := NewOp(spec, Median(), DropLate, 0)
		patched := 0
		for i, tp := range orderStatStream(rng, 1200, 60, spec, false) {
			op.Observe(tp, stream.Time(i), nil)
			o := op.fib.order
			if o == nil {
				continue
			}
			for p := int64(stream.Time(op.nextEmit) * spec.Slide / o.width); p < o.built; p++ {
				r := &o.ring[o.slot(p)]
				patched += len(r.vals) - r.sorted
				var want []float64
				op.fib.tree.RangeEach(stream.Time(p)*o.width, stream.Time(p+1)*o.width, func(v float64) { want = append(want, v) })
				have := slices.Clone(r.vals)
				slices.Sort(want)
				slices.Sort(have)
				if !slices.Equal(want, have) {
					t.Fatalf("%v step %d pane %d: run holds %v, the tree %v", spec, i, p, have, want)
				}
			}
		}
		if patched == 0 && spec.Size > spec.Slide { // a tumbling window's pane is read once
			t.Fatalf("%v: no tuple was ever released into a pane that had its run; the stream does not test patching", spec)
		}
	}
}

// TestOrderStatRestoreContinues snapshots mid-stream — through the snapshot
// JSON, ±Inf and NaN payloads included, with the tree's shape and without —
// and requires the restored operator, which has no runs and rebuilds them from
// the loaded tree, to continue bit for bit.
func TestOrderStatRestoreContinues(t *testing.T) {
	for _, spec := range orderStatSpecs[:4] {
		for _, pol := range []LatePolicy{DropLate, RefineLate} {
			for _, withShape := range []bool{true, false} {
				what := fmt.Sprintf("%v %v shape=%v", spec, pol, withShape)
				tuples := orderStatStream(rand.New(rand.NewSource(21)), 1000, 50, spec, true)
				for i := range tuples {
					if i%9 == 0 {
						tuples[i].Value = math.Copysign(0, float64(i%2)-1)
					}
				}
				cont := NewOp(spec, Quantile(0.95), pol, 80)
				cut := 450
				for i, tp := range tuples[:cut] {
					cont.Observe(tp, stream.Time(i), nil)
				}
				if cont.fib.order == nil {
					t.Fatalf("%s: nothing emitted before the cut", what)
				}
				st := cont.State()
				if !withShape {
					st.Shape = nil
				}
				data, err := snapjson.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				var back OpState
				if err := snapjson.Unmarshal(data, &back); err != nil {
					t.Fatal(err)
				}
				restored := NewOp(spec, Quantile(0.95), pol, 80)
				if err := restored.Restore(back); err != nil {
					t.Fatal(err)
				}
				var a, b []Result
				for i, tp := range tuples[cut:] {
					a = cont.Observe(tp, stream.Time(cut+i), a[:0])
					b = restored.Observe(tp, stream.Time(cut+i), b[:0])
					requireSameBits(t, what, a, b)
				}
				requireSameBits(t, what+" flush", cont.Flush(9999, nil), restored.Flush(9999, nil))
			}
		}
	}
}

// scanOnly hides an aggregate's concrete type from fibaModeFor, so the
// operator evaluates it by the ordered scan: the same order statistic by the
// operator's other route.
type scanOnly struct{ Aggregate }

// TestKeyedOrderStatistics runs the per-key operator (one tree and one set of
// runs per key, one shared clock) against itself on the ordered scan.
func TestKeyedOrderStatistics(t *testing.T) {
	for _, spec := range orderStatSpecs[:3] {
		for _, pol := range []LatePolicy{DropLate, RefineLate} {
			f := Quantile(0.95)
			byScan := Factory{Name: f.Name, New: func() Aggregate { return scanOnly{f.New()} }}
			if fibaModeFor(f) != fibaOrder || fibaModeFor(byScan) != fibaScan {
				t.Fatal("the two factories do not take the two routes")
			}
			tuples := orderStatStream(rand.New(rand.NewSource(3)), 1500, 60, spec, true)
			want, got := NewKeyedOp(spec, byScan, pol, 40), NewKeyedOp(spec, f, pol, 40)
			var a, b []KeyedResult
			check := func(step string) {
				if len(a) != len(b) {
					t.Fatalf("%v %v %s: %d results by selection, %d by scan", spec, pol, step, len(b), len(a))
				}
				for i := range a {
					if a[i].Key != b[i].Key || !sameBits(a[i].Result, b[i].Result) {
						t.Fatalf("%v %v %s: result %d: key %d %v by selection, key %d %v by scan",
							spec, pol, step, i, b[i].Key, b[i].Result, a[i].Key, a[i].Result)
					}
				}
			}
			for i, tp := range tuples {
				a = want.Observe(tp, stream.Time(i), a[:0])
				b = got.Observe(tp, stream.Time(i), b[:0])
				check(fmt.Sprint("step ", i))
			}
			a, b = want.Flush(9999, a[:0]), got.Flush(9999, b[:0])
			check("flush")
		}
	}
}

// TestSelectAcrossRuns asks selectPair for every rank of random run sets —
// empty runs, runs of one, heavy duplicates, NaNs, zeros of both signs,
// infinities — and compares with the sorted concatenation.
func TestSelectAcrossRuns(t *testing.T) {
	same := func(a, b float64) bool { return a == b || (a != a && b != b) }
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		runs := make([][]float64, 1+rng.Intn(12))
		spread := 1 + rng.Intn(50)
		var all []float64
		for i := range runs {
			for j := rng.Intn(40) * rng.Intn(2); j > 0; j-- {
				v := float64(rng.Intn(spread))
				switch rng.Intn(12) {
				case 0:
					v = awkward[rng.Intn(len(awkward))]
				case 1:
					v += rng.Float64()
				}
				runs[i] = append(runs[i], v)
			}
			if trial%7 == 0 && len(runs[i]) > 1 {
				runs[i] = runs[i][:1]
			}
			slices.Sort(runs[i])
			all = append(all, runs[i]...)
		}
		slices.Sort(all)
		ring := make([]run, len(runs))
		var live []int32
		for i, r := range runs {
			if ring[i].vals = r; len(r) > 0 {
				live = append(live, int32(i))
			}
		}
		for rank := range all {
			at, next := selectPair(ring, live, rank)
			if !same(at, all[rank]) || (rank+1 < len(all) && !same(next, all[rank+1])) {
				t.Fatalf("trial %d rank %d of %v: got %v then %v, sorted concatenation %v", trial, rank, runs, at, next, all[rank:min(rank+2, len(all))])
			}
		}
	}
}

// TestEveryBuiltInHasItsMode keeps a new built-in aggregate from landing on
// the ordered scan unnoticed: each factory maps to a mode of its own, or is
// listed here as scanned on purpose.
func TestEveryBuiltInHasItsMode(t *testing.T) {
	scanned := map[string]string{
		"avg":      "a Welford fold rounds per add, so only the (TS, Seq)-ordered replay is reproducible",
		"stddev":   "as avg",
		"distinct": "needs the window's value set",
	}
	want := map[string]fibaMode{"count": fibaCount, "sum": fibaSum, "min": fibaMin, "max": fibaMax, "median": fibaOrder, "p95": fibaOrder}
	for _, f := range append(AllFactories(), Distinct()) {
		mode := fibaModeFor(f)
		if _, ok := scanned[f.Name]; ok {
			if mode != fibaScan {
				t.Errorf("%s is listed as scanned and maps to mode %d", f.Name, mode)
			}
			continue
		}
		if m, ok := want[f.Name]; !ok || mode != m || mode == fibaScan {
			t.Errorf("%s maps to mode %d (listed: %v as %d): give a new built-in its mode in fibaModeFor, or list it here as scanned with the reason", f.Name, mode, ok, m)
		}
	}
	for pct := 1; pct < 100; pct++ {
		if f, err := ByName(fmt.Sprintf("p%02d", pct)); err != nil || fibaModeFor(f) != fibaOrder {
			t.Fatalf("p%02d: %v, mode %d", pct, err, fibaModeFor(f))
		}
	}
}

// TestOrderStatEmissionDoesNotAllocate is the cost gate: a steady-state
// p95 WINDOW 10s SLIDE 1s operator, 100 tuples per slide, must take a whole
// slide — a hundred tree inserts, one run built, one selection, one eviction
// — without allocating.
func TestOrderStatEmissionDoesNotAllocate(t *testing.T) {
	op := NewOp(Spec{Size: 10_000, Slide: 1_000}, Quantile(0.95), DropLate, 0)
	rng := rand.New(rand.NewSource(1))
	var seq uint64
	out := make([]Result, 0, 4)
	emitted := 0
	slide := func() {
		for i := 0; i < 100; i++ {
			seq++
			ts := stream.Time(seq * 10)
			out = op.Observe(stream.Tuple{Seq: seq, TS: ts, Value: rng.Float64()}, ts, out[:0])
			emitted += len(out)
		}
	}
	for i := 0; i < 40; i++ { // fill the window, the tree's free lists and every ring slot
		slide()
	}
	emitted = 0
	if allocs := testing.AllocsPerRun(50, slide); allocs != 0 {
		t.Errorf("a steady-state slide of a p95 window allocates %.1f times, want 0", allocs)
	}
	if emitted < 50 {
		t.Fatalf("%d windows emitted over 51 slides", emitted)
	}
}

// TestOrderStatSlotsShrinkAfterBurst: a pane a hundred times the usual size
// keeps its ring slot that large only until a normal pane takes the slot over,
// and the output stays the reference fold's, bit for bit, throughout.
func TestOrderStatSlotsShrinkAfterBurst(t *testing.T) {
	spec := Spec{Size: 20, Slide: 5} // panes of 5, four ring slots
	ref, op := newRefOp(spec, Quantile(0.95), DropLate, 0), NewOp(spec, Quantile(0.95), DropLate, 0)
	var want, got []Result
	var seq uint64
	burstCap := 0
	for ts := stream.Time(0); ts < 400; ts++ {
		n := 2
		if ts >= 100 && ts < 105 {
			n = 200 // pane 20: 1000 values, the others 10
		}
		for range n {
			tp := stream.Tuple{Seq: seq, TS: ts, Value: float64(seq % 97)}
			seq++
			want, got = ref.Observe(tp, ts, want[:0]), op.Observe(tp, ts, got[:0])
			requireSameBits(t, fmt.Sprintf("ts %d", ts), want, got)
		}
		if o := op.fib.order; o != nil { // built at the first emission
			for _, r := range o.ring {
				burstCap = max(burstCap, cap(r.vals))
			}
		}
	}
	if burstCap < 1000 {
		t.Fatalf("no slot ever held the burst pane (largest capacity %d): the test proves nothing", burstCap)
	}
	for i, r := range op.fib.order.ring {
		if cap(r.vals) > shrinkAbove*max(len(r.vals), 1) {
			t.Errorf("slot %d: capacity %d for a run of %d values, long after the burst", i, cap(r.vals), len(r.vals))
		}
	}
}

// FuzzOrderStatisticWindows draws a window shape, a quantile, a late policy
// and an arrival sequence (two bytes a tuple: a step of the event-time clock,
// backwards often enough to release tuples into panes already sorted, and a
// payload from a small alphabet with the awkward values in it), snapshots and
// restores the operator through JSON at a drawn cut, and holds every step to
// the reference fold bit for bit.
func FuzzOrderStatisticWindows(f *testing.F) {
	f.Add(uint8(19), uint8(4), uint8(94), false, uint16(40), []byte("\x05\x10\x06\x11\x00\x12\x09\x03\x0f\x20\x02\x21\xff\x22\x07\x01\x01\x30\x08\x31\x03\x32"))
	f.Add(uint8(9), uint8(2), uint8(49), true, uint16(7), []byte("abcdefghijklmnopqrstuvwxyz\x00\x01\x02\x03\x04\x05\xfe\xff\xfd\xfc"))
	f.Add(uint8(0), uint8(0), uint8(0), false, uint16(0), []byte("\x04\x00\x04\x01\x04\x02\x04\x03\x04\x04"))
	f.Fuzz(func(t *testing.T, sizeSel, slideSel, pct uint8, refine bool, cut uint16, data []byte) {
		spec := Spec{Size: 1 + stream.Time(sizeSel%64)}
		spec.Slide = 1 + stream.Time(slideSel)%spec.Size
		agg := Quantile(float64(1+pct%99) / 100)
		pol := DropLate
		if refine {
			pol = RefineLate
		}
		ref, op := newRefOp(spec, agg, pol, 3*spec.Size), NewOp(spec, agg, pol, 3*spec.Size)
		var clock stream.Time
		var want, got []Result
		for i := 0; i+1 < len(data); i += 2 {
			step, val := data[i], data[i+1]
			ts := clock + stream.Time(step%16) - 6
			if step == 0xff {
				ts = clock + 5*spec.Size // a gap of empty windows
			}
			clock = max(clock, ts)
			v := float64(val % 16)
			if val < 10 {
				v = awkward[val%5]
			}
			tp := stream.Tuple{Seq: uint64(i), TS: ts, Value: v}
			if i/2 == int(cut)%(len(data)/2) {
				st := op.State()
				if cut%2 == 1 {
					st.Shape = nil
				}
				raw, err := snapjson.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				var back OpState
				if err := snapjson.Unmarshal(raw, &back); err != nil {
					t.Fatal(err)
				}
				op = NewOp(spec, agg, pol, 3*spec.Size)
				if err := op.Restore(back); err != nil {
					t.Fatal(err)
				}
			}
			want = ref.Observe(tp, stream.Time(i), want[:0])
			got = op.Observe(tp, stream.Time(i), got[:0])
			requireSameBits(t, fmt.Sprintf("%s %v %v step %d", agg.Name, spec, pol, i/2), want, got)
		}
		requireSameBits(t, fmt.Sprintf("%s %v %v flush", agg.Name, spec, pol), ref.Flush(1<<30, nil), op.Flush(1<<30, nil))
	})
}
