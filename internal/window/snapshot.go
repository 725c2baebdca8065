package window

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/fiba"
	"repro/internal/stats"
	"repro/internal/stream"
)

// This file exports and restores operator state for crash-consistent
// snapshots (internal/durable). A restored operator continues exactly where
// the snapshot left off: same open-window tuples in the same tree, same
// emit cursor, same counters, so replaying the identical tuple suffix emits
// bit-identical results.

// AggState is the exported state of one window aggregate, generic across
// the concrete implementations: N is the add count, Nums holds a fixed
// per-kind tuple of scalars, Vals holds variable-length payloads (quantile
// sample, distinct key set).
type AggState struct {
	N    int64     `json:"n"`
	Nums []float64 `json:"nums,omitempty"`
	Vals []float64 `json:"vals,omitempty"`
}

// SaveAggregate exports the state of an aggregate created by one of this
// package's factories. It panics on an unknown implementation — a new
// aggregate type must add a case here before it can be snapshotted.
func SaveAggregate(a Aggregate) AggState {
	switch v := a.(type) {
	case *countAgg:
		return AggState{N: v.n}
	case *sumAgg:
		return AggState{N: v.n, Nums: []float64{v.sum, v.c}}
	case *avgAgg:
		w := v.w.State()
		return AggState{N: w.N, Nums: []float64{w.Mean, w.M2}}
	case *stddevAgg:
		w := v.w.State()
		return AggState{N: w.N, Nums: []float64{w.Mean, w.M2}}
	case *minAgg:
		return AggState{N: v.n, Nums: []float64{v.v}}
	case *maxAgg:
		return AggState{N: v.n, Nums: []float64{v.v}}
	case *quantileAgg:
		vals := make([]float64, len(v.vals))
		copy(vals, v.vals)
		return AggState{N: int64(len(v.vals)), Vals: vals}
	case *distinctAgg:
		keys := make([]float64, 0, len(v.seen))
		for k := range v.seen {
			keys = append(keys, k)
		}
		sort.Float64s(keys) // deterministic snapshot bytes
		return AggState{N: v.n, Vals: keys}
	}
	panic(fmt.Sprintf("window: cannot snapshot aggregate %T", a))
}

// RestoreAggregate builds a fresh aggregate from the factory and loads the
// exported state into it. The factory must be the one the state was saved
// from; mismatched shapes panic.
func RestoreAggregate(f Factory, st AggState) Aggregate {
	a := f.New()
	switch v := a.(type) {
	case *countAgg:
		v.n = st.N
	case *sumAgg:
		v.n, v.sum, v.c = st.N, num(st, 0), num(st, 1)
	case *avgAgg:
		v.w.Restore(welfordFrom(st))
	case *stddevAgg:
		v.w.Restore(welfordFrom(st))
	case *minAgg:
		v.n, v.v = st.N, num(st, 0)
	case *maxAgg:
		v.n, v.v = st.N, num(st, 0)
	case *quantileAgg:
		v.vals = append(v.vals, st.Vals...)
		v.sorted = false
	case *distinctAgg:
		v.n = st.N
		if len(st.Vals) > 0 {
			v.seen = make(map[float64]struct{}, len(st.Vals))
			for _, k := range st.Vals {
				v.seen[k] = struct{}{}
			}
		}
	default:
		panic(fmt.Sprintf("window: cannot restore aggregate %T", a))
	}
	return a
}

func num(st AggState, i int) float64 {
	if i >= len(st.Nums) {
		panic(fmt.Sprintf("window: aggregate state has %d scalars, need index %d", len(st.Nums), i))
	}
	return st.Nums[i]
}

// welfordFrom reads an avg or stddev state, [mean, m2]: the two moments
// their results are computed from. Slots past them, the extremes an older
// layout also saved ([mean, m2, min, max]), are not read.
func welfordFrom(st AggState) stats.WelfordState {
	return stats.WelfordState{N: st.N, Mean: num(st, 0), M2: num(st, 1)}
}

// WinAgg pairs a window index with its aggregate state.
type WinAgg struct {
	Idx int64    `json:"idx"`
	Agg AggState `json:"agg"`
}

// OpState is the exported state of a window operator.
type OpState struct {
	// Tree holds the open windows' tuples in key order and Shape how the
	// operator's tree arranges them. Restore rebuilds exactly that tree, so
	// that every cached partial — a float sum's low word included — is what
	// it was and the recovered run is bit-identical to the uninterrupted one
	// by construction. A snapshot written before shapes were recorded has
	// none and restores by bulk insert: same tuples, another grouping.
	Tree  []fiba.Entry `json:"tree,omitempty"`
	Shape *fiba.Shape  `json:"shape,omitempty"`
	// Kept is the ring of emitted windows the operator keeps (RefineLate,
	// SetFeedback); nil when it keeps none.
	Kept *KeptState `json:"kept,omitempty"`
	// Retained is never written. It is what a snapshot written before the
	// ring holds instead: a RefineLate operator's retained windows, sorted by
	// index, which Restore turns into the ring. Those windows come back
	// without their emitted value, so they are not reported (Final).
	Retained []WinAgg `json:"retained,omitempty"`
	// LegacyOpen is never written. It catches the per-window partials a
	// snapshot of the removed per-window-fold core carries under "open", so
	// that Restore can refuse them instead of restoring an operator whose
	// open windows are silently empty.
	LegacyOpen json.RawMessage `json:"open,omitempty"`
	NextEmit   int64           `json:"nextEmit"`
	EmitTries  int             `json:"emitTries,omitempty"` // panicked attempts at NextEmit
	HaveFirst  bool            `json:"haveFirst"`
	Clock      stream.Time     `json:"clock"`
	Started    bool            `json:"started"`
	Stats      OpStats         `json:"stats"`
}

// KeptState is the exported kept-window ring: windows Lo, Lo+1, … in order,
// and the next one to report.
type KeptState struct {
	Lo        int64     `json:"lo"`
	NextFinal int64     `json:"nextFinal"`
	Wins      []KeptWin `json:"wins"`
}

// KeptWin is one kept window: its aggregate (nil when its emission failed)
// and, when the operator reports (SetFeedback), the value it was emitted
// with.
type KeptWin struct {
	Agg     *AggState `json:"agg,omitempty"`
	Emitted float64   `json:"emitted"`
}

func (o *Op) saveKept() *KeptState {
	if o.kept.len() == 0 {
		return nil
	}
	st := &KeptState{Lo: o.kept.lo, NextFinal: o.nextFinal, Wins: make([]KeptWin, 0, o.kept.len())}
	for _, w := range o.kept.wins[o.kept.head:] {
		var kw KeptWin
		if o.feedback > 0 {
			kw.Emitted = w.emitted
		}
		if w.agg != nil {
			a := SaveAggregate(w.agg)
			kw.Agg = &a
		}
		st.Wins = append(st.Wins, kw)
	}
	return st
}

// restoreKept rebuilds the ring from st, or from the retained windows of a
// snapshot written before the ring (see OpState.Retained): they are the
// emitted windows from the first of them to nextEmit−1, less any whose
// emission failed, and none is reported.
func (o *Op) restoreKept(st OpState) {
	o.kept = keptRing{}
	if k := st.Kept; k != nil {
		o.kept.lo, o.nextFinal = k.Lo, k.NextFinal
		for _, kw := range k.Wins {
			w := keptWin{emitted: kw.Emitted}
			if kw.Agg != nil {
				w.agg = RestoreAggregate(o.agg, *kw.Agg)
			}
			o.kept.wins = append(o.kept.wins, w)
		}
		return
	}
	o.nextFinal = st.NextEmit
	was := st.Retained
	if len(was) == 0 {
		return
	}
	slices.SortFunc(was, func(a, b WinAgg) int { return cmp.Compare(a.Idx, b.Idx) })
	o.kept.lo = was[0].Idx
	for idx := o.kept.lo; idx < st.NextEmit; idx++ {
		var w keptWin
		if len(was) > 0 && was[0].Idx == idx {
			w.agg = RestoreAggregate(o.agg, was[0].Agg)
			was = was[1:]
		}
		o.kept.wins = append(o.kept.wins, w)
	}
}

// State exports the operator state.
func (o *Op) State() OpState {
	st := OpState{
		Kept:      o.saveKept(),
		NextEmit:  o.nextEmit,
		EmitTries: o.emitTries,
		HaveFirst: o.haveFirst,
		Clock:     o.clock,
		Started:   o.started,
		Stats:     o.stats,
	}
	if tree := o.fib.tree; tree.Len() > 0 {
		sh := tree.Shape()
		st.Tree, st.Shape = tree.Entries(make([]fiba.Entry, 0, tree.Len())), &sh
	}
	return st
}

// Restore sets the operator to a previously exported state. The operator
// must have been built with the same spec, factory and policy as the one the
// state was saved from. The state comes from a snapshot file, so what cannot
// be restored faithfully is an error and leaves the operator unchanged.
func (o *Op) Restore(st OpState) error {
	if len(st.LegacyOpen) > 0 && string(st.LegacyOpen) != "null" {
		return errors.New("window: snapshot holds per-window partials (\"open\") written by the removed per-window-fold core; " +
			"they cannot be turned back into tuples: clear the query's durable directory and let its source replay")
	}
	fresh := newFibaState(o.agg, o.spec)
	if st.Shape == nil {
		// Written before snapshots recorded the shape (or with no open tuples).
		fresh.tree.InsertBatch(st.Tree)
	} else if err := fresh.tree.Load(st.Tree, *st.Shape); err != nil {
		return fmt.Errorf("window: snapshot is damaged (%w): clear the query's durable directory and let its source replay", err)
	}
	o.fib = fresh
	o.restoreKept(st)
	o.nextEmit, o.emitTries = st.NextEmit, st.EmitTries
	o.haveFirst = st.HaveFirst
	o.clock = st.Clock
	o.started = st.Started
	o.stats = st.Stats
	return nil
}

// EmitProgress returns the index of the next primary window the operator
// will emit, and whether any window has been observed yet. Recovery uses it
// to suppress re-emission of windows that were already delivered before a
// crash.
func (o *Op) EmitProgress() (int64, bool) { return o.nextEmit, o.haveFirst }
