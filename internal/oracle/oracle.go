// Package oracle is the differential checker behind the deterministic
// simulation harness (internal/dst). Given reports produced by executing
// the same workload through different paths — concurrent vs synchronous,
// adaptive vs infinite slack, original vs permuted arrival order — it
// decides whether the engine's contracts held:
//
//   - Equivalence: RunConcurrent must reproduce the synchronous Run
//     executor's output byte for byte, whatever the batch size, shard
//     count or fault schedule.
//   - QualityContract: the realized error against the exact in-order
//     reference executor (window.Oracle), shed-adjusted per the
//     resilience accounting, must stay within the user's bound θ.
//   - Metamorphic relations: infinite slack ⇒ exact results; permuting
//     tuples that share (TS, Arrival) ⇒ identical output; relaxing θ ⇒
//     emission latency does not increase.
//   - Regret: SmallestK finds the best fixed K in hindsight — the smallest
//     slack on a grid that meets a bound — which an adaptive handler's
//     latency is measured against (exp.R9).
//
// The package deliberately knows nothing about how the workload was
// produced; internal/dst owns workload construction and variant
// execution, oracle owns judgement.
package oracle

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cq"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// resultEq compares two results bit for bit (NaN == NaN so a defect can
// not hide behind NaN != NaN).
func resultEq(a, b window.Result) bool {
	return a.Idx == b.Idx && a.Start == b.Start && a.End == b.End &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		a.Count == b.Count && a.EmitArrival == b.EmitArrival &&
		a.Refinement == b.Refinement
}

// diffResults returns a description of the first mismatch between two
// result sequences, or "" when identical.
func diffResults(label string, a, b []window.Result) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d vs %d results", label, len(a), len(b))
	}
	for i := range a {
		if !resultEq(a[i], b[i]) {
			return fmt.Sprintf("%s[%d]: %+v vs %+v", label, i, a[i], b[i])
		}
	}
	return ""
}

// diffKeyed is diffResults for grouped output; key order is part of the
// engine's output contract, so mismatched order is a failure.
func diffKeyed(label string, a, b []window.KeyedResult) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d vs %d results", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			return fmt.Sprintf("%s[%d]: key %d vs %d", label, i, a[i].Key, b[i].Key)
		}
		if !resultEq(a[i].Result, b[i].Result) {
			return fmt.Sprintf("%s[%d] (key %d): %+v vs %+v", label, i, a[i].Key, a[i].Result, b[i].Result)
		}
	}
	return ""
}

// SameOutput verifies that two reports carry identical query output:
// results (plain and keyed), the flush boundary, and the handler/operator
// counters that describe how the output was produced. It ignores
// Input/Disorder (callers compare those separately when the variants are
// supposed to consume the same transcript).
func SameOutput(a, b *cq.AggReport) error {
	if d := diffResults("results", a.Results, b.Results); d != "" {
		return fmt.Errorf("oracle: %s", d)
	}
	if d := diffKeyed("keyed", a.Keyed, b.Keyed); d != "" {
		return fmt.Errorf("oracle: %s", d)
	}
	if a.PreFlush != b.PreFlush {
		return fmt.Errorf("oracle: preflush %d vs %d", a.PreFlush, b.PreFlush)
	}
	if a.Handler != b.Handler {
		return fmt.Errorf("oracle: handler stats %+v vs %+v", a.Handler, b.Handler)
	}
	if a.Op != b.Op {
		return fmt.Errorf("oracle: op stats %+v vs %+v", a.Op, b.Op)
	}
	return nil
}

// Equivalence verifies the concurrent executor reproduced the synchronous
// executor exactly: same output (SameOutput) plus same consumed input —
// tuple count and disorder profile — and no sheds on either side (DST
// plans never enable shedding; a nonzero count means the harness lost its
// determinism guarantee, not that the engine mis-shed).
func Equivalence(sync, conc *cq.AggReport) error {
	if err := SameOutput(sync, conc); err != nil {
		return fmt.Errorf("%w (concurrent vs sync)", err)
	}
	if sync.Disorder != conc.Disorder {
		return fmt.Errorf("oracle: disorder %+v vs %+v (concurrent consumed a different transcript)",
			sync.Disorder, conc.Disorder)
	}
	if len(sync.Input) != len(conc.Input) {
		return fmt.Errorf("oracle: input %d vs %d tuples", len(sync.Input), len(conc.Input))
	}
	if sync.Shed != 0 || conc.Shed != 0 {
		return fmt.Errorf("oracle: unexpected sheds (sync=%d conc=%d) in a no-shed plan", sync.Shed, conc.Shed)
	}
	return nil
}

// ContractOpts parameterizes QualityContract.
type ContractOpts struct {
	// Theta is the quality bound the adaptive handler was configured with.
	Theta float64
	// SkipWarmup drops the first windows from the comparison while the
	// controller calibrates; zero means 20, matching the repository's
	// acceptance-suite convention.
	SkipWarmup int
	// ExtraLoss counts input tuples lost outside the shedding path — e.g.
	// journaled-but-uncommitted tuples dropped by a crash. They fold into
	// the shed-adjusted error the same way shed tuples do: both are
	// bounded, accounted data loss.
	ExtraLoss int64
}

// QualityContract verifies the paper's central promise on a report
// produced with KeepInput: the mean realized relative error against the
// exact in-order reference executor, with any shed tuples folded in via
// the shed-adjusted accounting from the resilience layer, stays within θ.
func QualityContract(rep *cq.AggReport, spec window.Spec, agg window.Factory, grouped bool, opts ContractOpts) error {
	if opts.SkipWarmup == 0 {
		opts.SkipWarmup = 20
	}
	cmp := metrics.CompareOpts{Theta: opts.Theta, SkipWarmup: opts.SkipWarmup, SkipEmptyOracle: true}
	var q metrics.QualityReport
	if grouped {
		q = rep.KeyedQuality(spec, agg, cmp)
	} else {
		q = rep.Quality(spec, agg, cmp)
	}
	if q.Windows == 0 {
		return nil // workload too short to outlast the warm-up: vacuously ok
	}
	accepted := int64(rep.Disorder.N) - rep.Shed
	adj := metrics.ShedAdjustedErr(q.MeanRelErr, rep.Shed+opts.ExtraLoss, accepted)
	if math.IsNaN(adj) || adj > opts.Theta {
		return fmt.Errorf("oracle: quality contract violated: shed-adjusted mean rel err %.5f > θ=%.5f (%s, shed=%d)",
			adj, opts.Theta, q, rep.Shed)
	}
	return nil
}

// ExactUnderInfiniteK verifies the first metamorphic relation: with
// unbounded slack nothing is ever released early, so the engine's output
// must match the exact in-order reference executor bit for bit — same
// window values and counts for every window index the oracle produces.
// EmitArrival legitimately differs (the reference executor is
// zero-latency by construction), so results are aligned by index and
// compared on (Start, End, Value, Count).
func ExactUnderInfiniteK(rep *cq.AggReport, spec window.Spec, agg window.Factory, grouped bool) error {
	type line struct {
		key uint64
		r   window.Result
	}
	flatten := func(rs []window.Result, krs []window.KeyedResult) []line {
		if !grouped {
			out := make([]line, len(rs))
			for i, r := range rs {
				out[i] = line{r: r}
			}
			return out
		}
		out := make([]line, len(krs))
		for i, kr := range krs {
			out[i] = line{key: kr.Key, r: kr.Result}
		}
		return out
	}
	var got, want []line
	if grouped {
		got = flatten(nil, rep.Keyed)
		want = flatten(nil, rep.KeyedOracle(spec, agg))
	} else {
		got = flatten(rep.Results, nil)
		want = flatten(rep.Oracle(spec, agg), nil)
	}
	if len(got) != len(want) {
		return fmt.Errorf("oracle: infinite-K: %d results vs %d oracle windows", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.key != w.key || g.r.Idx != w.r.Idx || g.r.Start != w.r.Start || g.r.End != w.r.End ||
			math.Float64bits(g.r.Value) != math.Float64bits(w.r.Value) || g.r.Count != w.r.Count {
			return fmt.Errorf("oracle: infinite-K: result %d: got key=%d %+v, oracle key=%d %+v",
				i, g.key, g.r, w.key, w.r)
		}
	}
	return nil
}

// LatencyNotWorse verifies the θ-monotonicity relation: relaxing the
// quality bound buys the controller license to shrink slack, so mean
// emission latency must not increase. tol absorbs the controller's
// discrete adaptation granularity (in stream-time units); comparisons
// with too few measured results to be meaningful pass vacuously.
func LatencyNotWorse(tight, relaxed metrics.LatencyReport, tol float64) error {
	if tight.Results < 10 || relaxed.Results < 10 {
		return nil
	}
	if math.IsNaN(tight.Mean) || math.IsNaN(relaxed.Mean) {
		return nil
	}
	if relaxed.Mean > tight.Mean+tol {
		return fmt.Errorf("oracle: latency grew when θ was relaxed: mean %.2f (tight) -> %.2f (relaxed), tol %.2f",
			tight.Mean, relaxed.Mean, tol)
	}
	return nil
}

// PermuteEqualArrival returns a copy of items in which maximal runs of
// consecutive data tuples sharing (TS, Arrival, Key) are shuffled by
// seed. Such tuples are observationally interchangeable to the engine —
// same event-time position, same arrival position, same partition — so
// any run of it must produce identical output on the permuted stream
// (the engine breaks release ties on (TS, Seq), and payload order within
// one slot must not leak into window values for order-insensitive
// aggregates). Key is part of the slot deliberately: swapping
// equal-timestamp tuples of different keys may legitimately move a key's
// pending emissions to a different input step, reordering (not changing)
// the keyed output. Heartbeats break runs: they advance the arrival
// clock.
func PermuteEqualArrival(items []stream.Item, seed uint64) []stream.Item {
	out := append([]stream.Item(nil), items...)
	rng := stats.NewRNG(seed)
	sameSlot := func(a, b stream.Item) bool {
		return !a.Heartbeat && !b.Heartbeat &&
			a.Tuple.TS == b.Tuple.TS && a.Tuple.Arrival == b.Tuple.Arrival &&
			a.Tuple.Key == b.Tuple.Key
	}
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && sameSlot(out[i], out[j]) {
			j++
		}
		if run := out[i:j]; len(run) > 1 {
			rng.Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
		}
		i = j
	}
	return out
}

// SmallestK returns the smallest K on the grid 0, step, 2·step, … up to
// ceiling at which holds is true, for a predicate monotone in K: false below
// some K, true from it on — "a fixed K-slack of K meets the bound" is one.
// It bisects, evaluating holds at the grid's top point first and then
// O(log(ceiling/step)) times; ok is false, and k 0, when even the top fails.
func SmallestK(step, ceiling stream.Time, holds func(k stream.Time) bool) (k stream.Time, ok bool) {
	n := int(ceiling / step)
	if !holds(stream.Time(n) * step) {
		return 0, false
	}
	i := sort.Search(n, func(i int) bool { return holds(stream.Time(i) * step) })
	return stream.Time(i) * step, true
}
