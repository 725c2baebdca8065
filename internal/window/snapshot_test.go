package window

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fiba"
	"repro/internal/stats"
	"repro/internal/stream"
)

func opTuples(seed uint64, n int) []stream.Tuple {
	rng := stats.NewRNG(seed)
	out := make([]stream.Tuple, n)
	for i := range out {
		ts := stream.Time(i) * 7
		// Mild disorder so late-tuple paths get exercised.
		if rng.Float64() < 0.1 && i > 10 {
			ts -= stream.Time(rng.Intn(60))
		}
		out[i] = stream.Tuple{TS: ts, Arrival: ts + stream.Time(rng.Intn(20)), Seq: uint64(i), Value: rng.NormFloat64() * 50}
	}
	return out
}

func TestOpStateContinuationAllAggregates(t *testing.T) {
	spec := Spec{Size: 100, Slide: 40}
	factories := append(AllFactories(), Distinct())
	for _, f := range factories {
		for _, policy := range []LatePolicy{DropLate, RefineLate} {
			t.Run(f.Name+"/"+policy.String(), func(t *testing.T) {
				a := NewOp(spec, f, policy, 200)
				b := NewOp(spec, f, policy, 200)
				tuples := opTuples(9, 500)
				cut := len(tuples) / 2

				var resA, resB []Result
				for _, tp := range tuples[:cut] {
					resA = a.Observe(tp, tp.Arrival, resA)
				}
				if err := b.Restore(a.State()); err != nil {
					t.Fatal(err)
				}

				prefix := len(resA)
				for _, tp := range tuples[cut:] {
					resA = a.Observe(tp, tp.Arrival, resA)
					resB = b.Observe(tp, tp.Arrival, resB)
				}
				resA = a.Flush(tuples[len(tuples)-1].Arrival, resA)
				resB = b.Flush(tuples[len(tuples)-1].Arrival, resB)

				suffix := resA[prefix:]
				if len(suffix) != len(resB) {
					t.Fatalf("result count diverged: %d vs %d", len(suffix), len(resB))
				}
				for i := range suffix {
					if suffix[i] != resB[i] {
						t.Fatalf("result %d diverged:\n  orig: %v\n  rest: %v", i, suffix[i], resB[i])
					}
				}
				if a.Stats() != b.Stats() {
					t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
				}
				if ea, oka := a.EmitProgress(); true {
					if eb, okb := b.EmitProgress(); ea != eb || oka != okb {
						t.Fatalf("emit progress diverged: %d,%v vs %d,%v", ea, oka, eb, okb)
					}
				}
			})
		}
	}
}

// TestWelfordStateRestoresWithRetiredExtremes: an avg or stddev window's
// state is [mean, m2]; a snapshot written while the state also kept the
// extremes holds [mean, m2, min, max]. A RefineLate operator restored from
// either must save the 2-slot state back and emit the same results to the
// bit — late tuples refining the restored windows included.
func TestWelfordStateRestoresWithRetiredExtremes(t *testing.T) {
	spec := Spec{Size: 100, Slide: 40}
	for _, f := range []Factory{Avg(), StdDev()} {
		t.Run(f.Name, func(t *testing.T) {
			a := NewOp(spec, f, RefineLate, 400)
			tuples := opTuples(11, 600)
			cut := len(tuples) / 2
			for _, tp := range tuples[:cut] {
				a.Observe(tp, tp.Arrival, nil)
			}
			st := a.State()
			if st.Kept == nil || len(st.Kept.Wins) == 0 {
				t.Fatal("no kept windows to restore")
			}
			legacy := st
			legacy.Kept = &KeptState{Lo: st.Kept.Lo, NextFinal: st.Kept.NextFinal}
			for _, kw := range st.Kept.Wins {
				if kw.Agg != nil {
					if len(kw.Agg.Nums) != 2 {
						t.Fatalf("saved %d scalars, want [mean, m2]", len(kw.Agg.Nums))
					}
					nums := kw.Agg.Nums
					agg := AggState{N: kw.Agg.N, Nums: []float64{nums[0], nums[1], nums[0] - 1, nums[0] + 1}}
					kw.Agg = &agg
				}
				legacy.Kept.Wins = append(legacy.Kept.Wins, kw)
			}

			var out [2][]Result
			for i, from := range []OpState{st, legacy} {
				b := NewOp(spec, f, RefineLate, 400)
				if err := b.Restore(from); err != nil {
					t.Fatal(err)
				}
				if got := b.State(); !reflect.DeepEqual(got.Kept, st.Kept) {
					t.Fatalf("restored from %d scalars, saves %+v, want %+v", len(from.Kept.Wins[0].Agg.Nums), got.Kept, st.Kept)
				}
				for _, tp := range tuples[cut:] {
					out[i] = b.Observe(tp, tp.Arrival, out[i])
				}
				out[i] = b.Flush(tuples[len(tuples)-1].Arrival, out[i])
			}
			refined := 0
			for _, r := range out[0] {
				if r.Refinement {
					refined++
				}
			}
			if refined == 0 || len(out[0]) != len(out[1]) {
				t.Fatalf("%d results (%d refinements) vs %d", len(out[0]), refined, len(out[1]))
			}
			for i := range out[0] {
				if out[0][i] != out[1][i] || math.Float64bits(out[0][i].Value) != math.Float64bits(out[1][i].Value) {
					t.Fatalf("result %d diverged:\n  2-slot: %v\n  4-slot: %v", i, out[0][i], out[1][i])
				}
			}
		})
	}
}

func TestOpStateFreshOperator(t *testing.T) {
	spec := Spec{Size: 10, Slide: 10}
	a := NewOp(spec, Sum(), DropLate, 0)
	st := a.State()
	if st.HaveFirst || len(st.Tree) != 0 || st.Shape != nil {
		t.Fatalf("fresh op exported non-trivial state: %+v", st)
	}
	b := NewOp(spec, Sum(), DropLate, 0)
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	var res []Result
	res = b.Observe(stream.Tuple{TS: 5, Arrival: 5, Value: 2}, 5, res)
	res = b.Flush(5, res)
	if len(res) != 1 || res[0].Value != 2 {
		t.Fatalf("restored-fresh op misbehaved: %v", res)
	}
}

func TestAggregateStateRoundTrip(t *testing.T) {
	rng := stats.NewRNG(21)
	for _, f := range append(AllFactories(), Distinct()) {
		a := f.New()
		for i := 0; i < 64; i++ {
			a.Add(float64(rng.Intn(40))) // repeats exercise distinct's map
		}
		b := RestoreAggregate(f, SaveAggregate(a))
		if a.N() != b.N() || a.Value() != b.Value() {
			t.Fatalf("%s: round trip changed value: n=%d/%d v=%v/%v",
				f.Name, a.N(), b.N(), a.Value(), b.Value())
		}
		// Continuation: both must evolve identically after restore.
		for i := 0; i < 32; i++ {
			v := rng.NormFloat64()
			a.Add(v)
			b.Add(v)
		}
		if a.Value() != b.Value() || a.N() != b.N() {
			t.Fatalf("%s: diverged after restore: %v vs %v", f.Name, a.Value(), b.Value())
		}
	}
}

func TestSaveAggregateUnknownTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for unknown aggregate type")
		}
	}()
	SaveAggregate(unknownAgg{})
}

type unknownAgg struct{}

func (unknownAgg) Add(float64)    {}
func (unknownAgg) Value() float64 { return 0 }
func (unknownAgg) N() int64       { return 0 }

// TestRestoreShapelessSnapshotInAnyOrder: a snapshot that records no tree
// shape (written before shapes were, or edited by hand) is outside input of
// any size in any order, and restores by bulk insert. Half a million shuffled
// entries — equal keys among them, which keep their snapshot order — must come
// back as the sorted input, in time a start-up can afford (the insertion sort
// this replaced moved a quarter of n² entries: minutes).
func TestRestoreShapelessSnapshotInAnyOrder(t *testing.T) {
	const n = 500_000
	rng := stats.NewRNG(77)
	ents := make([]fiba.Entry, n)
	for i := range ents {
		ents[i] = fiba.Entry{Key: fiba.Key{TS: stream.Time(rng.Intn(n / 4)), Seq: uint64(rng.Intn(4))}, Val: float64(i)}
	}
	want := slices.Clone(ents)
	slices.SortStableFunc(want, func(a, b fiba.Entry) int { return a.Key.Compare(b.Key) })

	op := NewOp(Spec{Size: 1000, Slide: 100}, Sum(), DropLate, 0)
	if err := op.Restore(OpState{Tree: ents, HaveFirst: true, Started: true, Clock: stream.Time(n / 4)}); err != nil {
		t.Fatal(err)
	}
	if got := op.State().Tree; !slices.Equal(got, want) {
		t.Fatalf("restored tree holds %d entries, want the %d of the snapshot in key order (or they differ)", len(got), len(want))
	}
}
