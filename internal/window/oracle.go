package window

import (
	"sort"

	"repro/internal/stream"
)

// This file is the reference evaluation the quality metrics, the DST
// oracles and the benchmark's quality columns rest on. It is deliberately
// the plainest possible fold and shares no code with the operator or its
// tree: what the two agree on, they agree on independently.

// Oracle computes the exact per-window results a query would produce with
// perfect (event-time-ordered, loss-free) input: every window from the first
// tuple's first window to the last tuple's last one, empty ones included.
// The input may be in any order; it is copied and sorted by (TS, Seq).
// Every oracle result has zero latency.
func Oracle(spec Spec, agg Factory, tuples []stream.Tuple) []Result {
	if len(tuples) == 0 {
		return nil
	}
	sorted := sortedCopy(spec, tuples)
	lo, _ := spec.WindowsFor(sorted[0].TS)
	_, hi := spec.WindowsFor(sorted[len(sorted)-1].TS)
	return foldWindows(spec, agg, sorted, lo, hi)
}

// sortedCopy is the oracles' common entry: the input in (TS, Seq) order,
// the caller's slice untouched. It panics on an invalid spec.
func sortedCopy(spec Spec, tuples []stream.Tuple) []stream.Tuple {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	sorted := make([]stream.Tuple, len(tuples))
	copy(sorted, tuples)
	stream.SortByEventTime(sorted)
	return sorted
}

// foldWindows evaluates windows lo..hi over sorted input: each window is a
// fresh aggregate fed, in order, every tuple its interval covers.
func foldWindows(spec Spec, agg Factory, sorted []stream.Tuple, lo, hi int64) []Result {
	out := make([]Result, 0, hi-lo+1)
	first := 0 // first tuple at or past the window start; starts only grow
	for idx := lo; idx <= hi; idx++ {
		start, end := spec.Bounds(idx)
		for first < len(sorted) && sorted[first].TS < start {
			first++
		}
		a := agg.New()
		for i := first; i < len(sorted) && sorted[i].TS < end; i++ {
			a.Add(sorted[i].Value)
		}
		// An oracle is instantaneous: each window is emitted as it closes.
		out = append(out, Result{Idx: idx, Start: start, End: end, Value: a.Value(), Count: a.N(), EmitArrival: end})
	}
	return out
}

// KeyedOracle computes exact per-key results for any-order input, in the
// canonical emission order of KeyedOp over ordered input. Keys share one
// event-time clock, so a key's windows run from its own first window to its
// own last one or the last window the whole stream closes, whichever is
// later; a result is emitted by the step — the first tuple of any key at or
// past the window's end, or the final flush — that closes its window, and
// within one step results are ordered by key, then by window.
func KeyedOracle(spec Spec, agg Factory, tuples []stream.Tuple) []KeyedResult {
	if len(tuples) == 0 {
		return nil
	}
	sorted := sortedCopy(spec, tuples)
	byKey := make(map[uint64][]stream.Tuple)
	for _, t := range sorted {
		byKey[t.Key] = append(byKey[t.Key], t)
	}
	closed := spec.LastClosed(sorted[len(sorted)-1].TS)
	var out []KeyedResult
	for key, own := range byKey {
		lo, _ := spec.WindowsFor(own[0].TS)
		_, hi := spec.WindowsFor(own[len(own)-1].TS)
		if closed > hi {
			hi = closed
		}
		for _, r := range foldWindows(spec, agg, own, lo, hi) {
			out = append(out, KeyedResult{Key: key, Result: r})
		}
	}
	// The closing step of a window: the index of the first tuple at or past
	// its end; len(sorted) is the flush.
	step := func(end stream.Time) int {
		return sort.Search(len(sorted), func(i int) bool { return sorted[i].TS >= end })
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if sa, sb := step(a.End), step(b.End); sa != sb {
			return sa < sb
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Idx < b.Idx
	})
	return out
}

// ResultsByIdx indexes primary results by window index. Refinements
// overwrite the primary entry, so the map reflects the final value a
// consumer would hold per window.
func ResultsByIdx(rs []Result) map[int64]Result {
	m := make(map[int64]Result, len(rs))
	for _, r := range rs {
		m[r.Idx] = r
	}
	return m
}
