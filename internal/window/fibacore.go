package window

import (
	"repro/internal/fiba"
	"repro/internal/stream"
)

// This file is the operator's open-window evaluation: instead of adding
// each tuple to every open window's Aggregate (Size/Slide updates per
// tuple), the tuple is stored once in a finger B-tree aggregator keyed by
// (TS, Seq), and a closing window's aggregate is materialized at emission
// from the window's event-time range — by combining cached partials where
// the aggregate is a monoid over scalars, by selecting across per-pane sorted
// runs where it is an order statistic (orderstat.go), by an ordered scan
// otherwise.

// fibaMode classifies how a Factory's aggregate is materialized.
type fibaMode uint8

const (
	// fibaScan: the aggregate has no scalar partial the tree could cache — a
	// distinct count needs the window's value multiset, avg and stddev
	// (Welford updates) are numerically fold-order-sensitive, and a
	// non-built-in Aggregate is opaque. The tree serves as the ordered
	// tuple index (count-only partials answer the emptiness query); emission
	// walks the window's leaf range and feeds a fresh aggregate in (TS, Seq)
	// order. That order does not depend on when the disorder handler released
	// a tuple, so the result depends only on which tuples made it into the
	// window — and equals the reference fold exactly when none was dropped.
	fibaScan fibaMode = iota
	fibaCount
	fibaSum
	fibaMin
	fibaMax
	// fibaOrder: median and pNN. The tree is again the ordered index with
	// count-only partials, read one pane at a time: each pane's values are
	// sorted once and a window's quantile is selected across its panes' runs
	// (orderstat.go).
	fibaOrder
)

// fibaModeFor classifies a factory by the concrete aggregate it builds.
func fibaModeFor(f Factory) fibaMode {
	switch f.New().(type) {
	case *countAgg:
		return fibaCount
	case *sumAgg:
		return fibaSum
	case *minAgg:
		return fibaMin
	case *maxAgg:
		return fibaMax
	case *quantileAgg:
		return fibaOrder
	default:
		return fibaScan
	}
}

// treePart is the node partial cached by the tree: the add count
// plus the scalar state of the mergeable aggregate — sumAgg's (sum, c) pair
// for sums, the extremum for min/max, unused for the count, order-statistic
// and scan modes.
type treePart struct {
	n    int64
	a, b float64
}

// treeMonoid implements fiba.Monoid[treePart] for one mode. Combine is the
// MergeFrom arithmetic of the corresponding aggregate (merge.go), so a
// tree-combined partial equals a sequentially folded one wherever regrouping
// is exact: always for count/min/max, and for sums because sumAgg's pair
// arithmetic rounds the head once, from a total good to ~2⁻¹⁰⁶, in whatever
// order the parts arrive. The snapshot preserves the tree's shape all the same
// (snapshot.go): the pair's low word, which refinement carries on from, and
// any rounding-boundary case stay exactly as they were.
type treeMonoid struct{ mode fibaMode }

// Identity implements fiba.Monoid.
func (treeMonoid) Identity() treePart { return treePart{} }

// Lift implements fiba.Monoid.
func (m treeMonoid) Lift(v float64) treePart {
	switch m.mode {
	case fibaSum, fibaMin, fibaMax:
		return treePart{n: 1, a: v}
	default:
		return treePart{n: 1}
	}
}

// Combine implements fiba.Monoid.
func (m treeMonoid) Combine(x, y treePart) treePart {
	if x.n == 0 {
		return y
	}
	if y.n == 0 {
		return x
	}
	out := treePart{n: x.n + y.n}
	switch m.mode {
	case fibaSum:
		out.a, out.b = sumPlus(x.a, x.b, y.a, y.b) // sumAgg's pair: a = sum, b = c
	case fibaMin:
		out.a = x.a
		if y.a < out.a {
			out.a = y.a
		}
	case fibaMax:
		out.a = x.a
		if y.a > out.a {
			out.a = y.a
		}
	}
	return out
}

// fibaState is the operator's open-window state.
type fibaState struct {
	mode fibaMode
	tree *fiba.Tree[treePart]
	// scratch stages a distinct window's values (aggFor) so every emission
	// reuses one buffer. Only borrowed within a single aggFor call.
	scratch []float64
	run     []fiba.Entry // insertRun's staging, likewise

	// Order-statistic mode: the quantile, and the panes' sorted runs — built
	// by the first emission, so an operator that never emits (and set-up)
	// pays nothing for them.
	spec  Spec
	p     float64
	order *paneRuns
}

// newFibaState builds the empty open-window state for a factory.
func newFibaState(f Factory, spec Spec) fibaState {
	mode := fibaModeFor(f)
	s := fibaState{mode: mode, tree: fiba.New[treePart](treeMonoid{mode: mode}), spec: spec}
	if mode == fibaOrder {
		s.p = f.New().(*quantileAgg).p
	}
	return s
}

// insert stores one tuple that is live for at least one window.
func (s *fibaState) insert(t stream.Tuple) {
	s.tree.Insert(fiba.Key{TS: t.TS, Seq: t.Seq}, t.Value)
	if s.order != nil {
		s.order.patch(t.TS, t.Value)
	}
}

// insertRun stores a run of tuples, in slice order, none of which lies in a
// pane that has a sorted run (Op.ObserveRun says why): the tree takes them as
// one run and there is nothing to patch.
func (s *fibaState) insertRun(ts []stream.Tuple) {
	s.run = s.run[:0]
	for i := range ts {
		s.run = append(s.run, fiba.Entry{Key: fiba.Key{TS: ts[i].TS, Seq: ts[i].Seq}, Val: ts[i].Value})
	}
	s.tree.InsertRun(s.run)
}

// aggFor materializes the factory's Aggregate for the window [start, end)
// from the tree, or nil when the window is empty. The concrete aggregate
// carries the state sequential adds in key order would have produced, so
// downstream refinement carries on from there — if the caller says it retains
// it (RefineLate); what is returned otherwise is only good for reading Value
// and N before the next call.
func (s *fibaState) aggFor(f Factory, start, end stream.Time, retain bool) Aggregate {
	if s.mode == fibaOrder {
		return s.orderStat(f, start, end, retain)
	}
	part := s.tree.RangeAgg(start, end)
	if part.n == 0 {
		return nil
	}
	switch s.mode {
	case fibaCount:
		return &countAgg{n: part.n}
	case fibaSum:
		return &sumAgg{n: part.n, sum: part.a, c: part.b}
	case fibaMin:
		return &minAgg{n: part.n, v: part.a}
	case fibaMax:
		return &maxAgg{n: part.n, v: part.a}
	default: // fibaScan: replay the window's values in key order
		a := f.New()
		if t, ok := a.(*distinctAgg); ok {
			t.seen = make(map[float64]struct{}, part.n)
			for _, v := range s.values(start, end) {
				t.seen[v] = struct{}{}
			}
			t.n = part.n
		} else {
			s.tree.RangeEach(start, end, a.Add)
		}
		return a
	}
}

// values stages the window's values, in key order, in the scratch buffer.
func (s *fibaState) values(start, end stream.Time) []float64 {
	s.scratch = s.scratch[:0]
	s.tree.RangeEach(start, end, func(v float64) {
		s.scratch = append(s.scratch, v)
	})
	return s.scratch
}
