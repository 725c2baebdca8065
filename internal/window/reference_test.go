package window

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// refOp is the per-window fold the operator ran before every window
// aggregate moved onto the finger B-tree, kept verbatim as the reference
// the tree-backed Op is held to: one Aggregate per open window in a map,
// every tuple added to each of the Size/Slide windows containing it.
type refOp struct {
	spec      Spec
	agg       Factory
	policy    LatePolicy
	refineFor stream.Time

	open      map[int64]Aggregate
	retained  map[int64]Aggregate
	nextEmit  int64
	haveFirst bool
	clock     stream.Time
	started   bool
	stats     OpStats
}

func newRefOp(spec Spec, agg Factory, policy LatePolicy, refineFor stream.Time) *refOp {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &refOp{
		spec:      spec,
		agg:       agg,
		policy:    policy,
		refineFor: refineFor,
		open:      make(map[int64]Aggregate),
		retained:  make(map[int64]Aggregate),
	}
}

func (o *refOp) Observe(t stream.Tuple, now stream.Time, out []Result) []Result {
	o.stats.TuplesIn++
	first, last := o.spec.WindowsFor(t.TS)
	if !o.haveFirst {
		o.haveFirst = true
		o.nextEmit = first
	}

	late := false
	for idx := first; idx <= last; idx++ {
		if idx < o.nextEmit {
			late = true
			if o.policy == RefineLate {
				if agg, ok := o.retained[idx]; ok {
					agg.Add(t.Value)
					o.stats.LateRefined++
					out = append(out, o.result(idx, agg, now, true))
					o.stats.Refinements++
					continue
				}
			}
			o.stats.LateDrops++
			continue
		}
		agg, ok := o.open[idx]
		if !ok {
			agg = o.agg.New()
			o.open[idx] = agg
		}
		agg.Add(t.Value)
	}
	if late {
		o.stats.LateTuples++
	}
	return o.Advance(t.TS, now, out)
}

func (o *refOp) Advance(eventTS, now stream.Time, out []Result) []Result {
	if !o.started || eventTS > o.clock {
		o.clock = eventTS
		o.started = true
	}
	if !o.haveFirst {
		return out
	}
	lastClosed := o.spec.LastClosed(o.clock)
	for idx := o.nextEmit; idx <= lastClosed; idx++ {
		out = o.emit(idx, now, out)
	}
	o.expireRetained()
	return out
}

func (o *refOp) Flush(now stream.Time, out []Result) []Result {
	if !o.haveFirst {
		return out
	}
	maxIdx := o.nextEmit - 1
	for idx := range o.open {
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	for idx := o.nextEmit; idx <= maxIdx; idx++ {
		out = o.emit(idx, now, out)
	}
	return out
}

func (o *refOp) emit(idx int64, now stream.Time, out []Result) []Result {
	agg := o.open[idx]
	delete(o.open, idx)
	if agg == nil {
		agg = o.agg.New()
		o.stats.EmptyEmitted++
	}
	out = append(out, o.result(idx, agg, now, false))
	o.stats.Emitted++
	if o.policy == RefineLate {
		o.retained[idx] = agg
	}
	if idx >= o.nextEmit {
		o.nextEmit = idx + 1
	}
	return out
}

func (o *refOp) result(idx int64, agg Aggregate, now stream.Time, refinement bool) Result {
	start, end := o.spec.Bounds(idx)
	return Result{
		Idx:         idx,
		Start:       start,
		End:         end,
		Value:       agg.Value(),
		Count:       agg.N(),
		EmitArrival: now,
		Refinement:  refinement,
	}
}

func (o *refOp) expireRetained() {
	if o.policy != RefineLate || len(o.retained) == 0 {
		return
	}
	for idx := range o.retained {
		_, end := o.spec.Bounds(idx)
		if end+o.refineFor <= o.clock {
			delete(o.retained, idx)
		}
	}
}

// genTuples builds a d-bounded out-of-order stream of n integer-valued
// tuples with timestamps spread over several windows.
func genTuples(rng *rand.Rand, n, d int) []stream.Tuple {
	ts := make([]stream.Time, n)
	for i := range ts {
		ts[i] = stream.Time(i * 7 / 3) // ~2.3 ticks apart, duplicates included
	}
	// d-bounded shuffle: swap each position with one up to d ahead.
	for i := range ts {
		j := i + rng.Intn(d+1)
		if j < n {
			ts[i], ts[j] = ts[j], ts[i]
		}
	}
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		tuples[i] = stream.Tuple{
			Seq:   uint64(i),
			TS:    ts[i],
			Key:   uint64(rng.Intn(5)),
			Value: float64(rng.Intn(2000) - 1000),
		}
	}
	return tuples
}

// resultsWithin compares two results field by field; the values must be the
// same bits (or both NaN) for tol 0, and otherwise differ by at most tol.
func resultsWithin(a, b Result, tol float64) bool {
	sameVal := math.Float64bits(a.Value) == math.Float64bits(b.Value) || (math.IsNaN(a.Value) && math.IsNaN(b.Value))
	if !sameVal && tol > 0 {
		sameVal = math.Abs(a.Value-b.Value) <= tol
	}
	return a.Idx == b.Idx && a.Start == b.Start && a.End == b.End && sameVal &&
		a.Count == b.Count && a.EmitArrival == b.EmitArrival && a.Refinement == b.Refinement
}

func resultsEqual(a, b Result) bool { return resultsWithin(a, b, 0) }

func compareResults(t *testing.T, name string, spec Spec, pol LatePolicy, want, got []Result, tol float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s %v %v: emitted %d results, the reference fold %d\nreference=%v\ntree=%v",
			name, spec, pol, len(got), len(want), want, got)
	}
	for i := range want {
		if !resultsWithin(want[i], got[i], tol) {
			t.Fatalf("%s %v %v: result %d diverges (tolerance %g)\nreference=%v\ntree=%v",
				name, spec, pol, i, tol, want[i], got[i])
		}
	}
}

// TestOpMatchesReferenceFold drives the reference fold and the tree-backed
// operator through identical streams, for every factory, both late policies
// and three window shapes, and compares what each step emits.
//
// On integer payloads count, sum, min, max, quantiles and distinct must
// agree to the bit however disordered the arrivals are: their results do not
// depend on fold order (a sum of integers is exact under any regrouping). avg and stddev are Welford folds, and a Welford fold rounds
// at every step, so its last bits depend on the order of the adds: the
// reference adds in arrival order, the operator replays the window in
// (TS, Seq) order at emission. When arrivals are already in key order the
// two orders coincide and the results must be bit-identical. Under disorder
// they may differ by rounding, and the bound is 4 ulp of the payload
// magnitude (|v| ≤ 1000), not of the result: the running mean rounds at the
// scale of the values it has seen, so where payloads cancel — a mean of
// exactly 0 in one order — the other order is off by ~1e-13 all the same.
func TestOpMatchesReferenceFold(t *testing.T) {
	specs := []Spec{
		{Size: 10, Slide: 10}, // tumbling
		{Size: 20, Slide: 5},  // overlap 4
		{Size: 30, Slide: 7},  // slide not dividing size
	}
	factories := []Factory{Count(), Sum(), Min(), Max(), Median(), Quantile(0.95), Distinct(), Avg(), StdDev()}
	for _, spec := range specs {
		for _, f := range factories {
			for _, pol := range []LatePolicy{DropLate, RefineLate} {
				for _, disorder := range []int{0, 40} {
					tol := 0.0
					if disorder > 0 && (f.Name == "avg" || f.Name == "stddev") {
						tol = 4 * (math.Nextafter(1000, 2000) - 1000)
					}
					rng := rand.New(rand.NewSource(int64(spec.Size)*1000 + int64(len(f.Name))))
					tuples := genTuples(rng, 1500, disorder)
					ref := newRefOp(spec, f, pol, 100)
					tree := NewOp(spec, f, pol, 100)
					var want, got []Result
					for i, tp := range tuples {
						now := stream.Time(i)
						want = ref.Observe(tp, now, want[:0])
						got = tree.Observe(tp, now, got[:0])
						compareResults(t, f.Name, spec, pol, want, got, tol)
					}
					want = ref.Flush(9999, want[:0])
					got = tree.Flush(9999, got[:0])
					compareResults(t, f.Name, spec, pol, want, got, tol)
					if ref.stats != tree.Stats() {
						t.Fatalf("%s %v %v: stats diverge: reference=%+v tree=%+v",
							f.Name, spec, pol, ref.stats, tree.Stats())
					}
				}
			}
		}
	}
}

// TestOraclesMatchOperatorsOverOrderedInput pins the stand-alone reference
// folds to what they replaced: Oracle and KeyedOracle used to run an
// operator over the sorted input, and their output — every field, and for
// the keyed one the emission order — must not have moved.
func TestOraclesMatchOperatorsOverOrderedInput(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tuples := genTuples(rng, 600, 30)
		for i := range tuples { // gaps, so empty windows and multi-window steps occur
			if tuples[i].TS > 500 {
				tuples[i].TS += 170
			}
		}
		whole := append([]stream.Tuple(nil), tuples...)
		for i := range tuples {
			tuples[i].Value += rng.Float64()
		}
		for _, spec := range []Spec{{Size: 10, Slide: 10}, {Size: 20, Slide: 5}, {Size: 30, Slide: 7}} {
			for _, f := range []Factory{Sum(), Avg(), Median(), Min()} {
				ref := newRefOp(spec, f, DropLate, 0)
				var want []Result
				for _, tp := range sortedCopy(spec, tuples) {
					want = ref.Observe(tp, 0, want)
				}
				want = ref.Flush(0, want)
				for i := range want {
					want[i].EmitArrival = want[i].End
				}
				got := Oracle(spec, f, tuples)
				compareResults(t, "oracle/"+f.Name, spec, DropLate, want, got, 0)

				// The keyed comparison runs the tree-backed operator: what it
				// pins is the emission order, so whole-number payloads, which
				// keep every aggregate exact, do.
				sorted := sortedCopy(spec, whole)
				op := NewKeyedOp(spec, f, DropLate, 0)
				var kwant []KeyedResult
				for _, tp := range sorted {
					kwant = op.Observe(tp, 0, kwant)
				}
				kwant = op.Flush(0, kwant)
				kgot := KeyedOracle(spec, f, whole)
				if len(kgot) != len(kwant) {
					t.Fatalf("seed %d %s %v: keyed oracle has %d results, the operator %d", seed, f.Name, spec, len(kgot), len(kwant))
				}
				for i := range kwant {
					kwant[i].EmitArrival = kwant[i].End
					if kgot[i].Key != kwant[i].Key || !resultsEqual(kgot[i].Result, kwant[i].Result) {
						t.Fatalf("seed %d %s %v: keyed result %d: oracle key=%d %v, operator key=%d %v",
							seed, f.Name, spec, i, kgot[i].Key, kgot[i].Result, kwant[i].Key, kwant[i].Result)
					}
				}
			}
		}
	}
	if Oracle(Spec{Size: 10, Slide: 5}, Sum(), nil) != nil || KeyedOracle(Spec{Size: 10, Slide: 5}, Sum(), nil) != nil {
		t.Fatal("an oracle over no input emitted windows")
	}
}
