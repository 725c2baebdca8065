package window

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Aggregate accumulates the values of one window. Each window instance gets
// its own Aggregate from a Factory, so implementations need no removal
// support and may keep per-window state.
type Aggregate interface {
	// Add incorporates one tuple value.
	Add(v float64)
	// Value returns the current aggregate. Aggregates of an empty window
	// return the function's identity (0 for count/sum) or NaN where no
	// identity exists (avg, min, max, quantiles).
	Value() float64
	// N returns how many values were added.
	N() int64
}

// Factory creates a fresh Aggregate per window. The name identifies the
// function in experiment tables and on the CLI.
//
// A Factory need not be one of this package's. What the operator does with
// a non-built-in aggregate is the ordered scan (fibacore.go): the window's
// tuples wait in the operator's tree, and when the window is emitted New is
// called once and Add is fed every value in (TS, Seq) order, then Value and
// N are read. So Add runs at emission, not at arrival; the add order does
// not depend on how the disorder handler released the tuples; and a panic
// out of New, Add or Value leaves the window unemitted with nothing lost —
// the next advance tries it again, and what the call had already emitted
// waits in the operator (Op.Drain). A window whose emission panics
// maxEmitTries times in a row is given up — emitted as NaN with count 0,
// counted in OpStats.EmitFailed — so an aggregate that chokes on a value
// every time loses the windows holding that value and nothing else. Under
// RefineLate the emitted aggregate is retained and late values are added to
// it as they arrive. Operator
// snapshots hold tuples, so such an aggregate needs no State support unless
// it is retained (SaveAggregate knows the built-in ones only).
type Factory struct {
	Name string
	New  func() Aggregate
}

// --- implementations ---

type countAgg struct{ n int64 }

func (a *countAgg) Add(float64)    { a.n++ }
func (a *countAgg) Value() float64 { return float64(a.n) }
func (a *countAgg) N() int64       { return a.n }

// sumAgg keeps the sum as an unevaluated pair: sum − c is the total of what
// was added, sum its rounded head, c what the rounding left out. Windows can
// hold millions of values, and the operator combines per-node partials of
// them in whatever grouping its tree has (fibacore.go); every step being an
// error-free transformation, the pair is good to ~2⁻¹⁰⁶ relative and the head
// is the correctly rounded total whichever way the additions were grouped —
// short of a total within that distance of a rounding boundary. That is what
// makes a tree-combined sum and a sequential fold agree to the bit.
type sumAgg struct {
	n      int64
	sum, c float64
}

func (a *sumAgg) Add(v float64) {
	a.n++
	a.sum, a.c = sumPlus(a.sum, a.c, v, 0)
}

// sumPlus adds the pair (ys, yc) to the pair (xs, xc).
func sumPlus(xs, xc, ys, yc float64) (sum, c float64) {
	h, e := twoSum(xs, ys)
	e -= xc + yc
	sum, e = twoSum(h, e)
	return sum, -e
}

// twoSum returns s = fl(a+b) and its rounding error: a + b = s + e exactly
// (Knuth), whatever the magnitudes.
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bv := s - a
	return s, (a - (s - bv)) + (b - bv)
}

func (a *sumAgg) Value() float64 { return a.sum }
func (a *sumAgg) N() int64       { return a.n }

type avgAgg struct{ w stats.Welford }

func (a *avgAgg) Add(v float64) { a.w.Add(v) }
func (a *avgAgg) Value() float64 {
	if a.w.N() == 0 {
		return math.NaN()
	}
	return a.w.Mean()
}
func (a *avgAgg) N() int64 { return a.w.N() }

type stddevAgg struct{ w stats.Welford }

func (a *stddevAgg) Add(v float64) { a.w.Add(v) }
func (a *stddevAgg) Value() float64 {
	if a.w.N() == 0 {
		return math.NaN()
	}
	return a.w.Std()
}
func (a *stddevAgg) N() int64 { return a.w.N() }

type minAgg struct {
	n int64
	v float64
}

func (a *minAgg) Add(v float64) {
	if a.n == 0 || v < a.v {
		a.v = v
	}
	a.n++
}
func (a *minAgg) Value() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.v
}
func (a *minAgg) N() int64 { return a.n }

type maxAgg struct {
	n int64
	v float64
}

func (a *maxAgg) Add(v float64) {
	if a.n == 0 || v > a.v {
		a.v = v
	}
	a.n++
}
func (a *maxAgg) Value() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.v
}
func (a *maxAgg) N() int64 { return a.n }

// quantileAgg computes an exact quantile of the values added to it, by
// sorting them at read time: Value caches the sort until the next Add, and
// an Add into an already-sorted sample inserts in place rather than
// invalidating the cache — interleaved Add/Value (refinement reads) would
// otherwise re-sort the full sample per tuple. That is what the oracle and
// a window retained for refinement use. The operator does not evaluate an
// open window this way: it selects the same value, to the bit, across
// per-pane sorted runs (orderstat.go), and builds a quantileAgg only for
// RefineLate to retain.
type quantileAgg struct {
	p      float64
	vals   []float64
	sorted bool
}

func (a *quantileAgg) Add(v float64) {
	if a.sorted && len(a.vals) > 0 {
		i := 0 // a NaN sorts first, where the search (every v >= NaN is false) would not put it
		if v == v {
			i = sort.SearchFloat64s(a.vals, v)
		}
		a.vals = append(a.vals, 0)
		copy(a.vals[i+1:], a.vals[i:])
		a.vals[i] = v
		return
	}
	a.vals = append(a.vals, v)
	a.sorted = false
}

func (a *quantileAgg) Value() float64 {
	if len(a.vals) == 0 {
		return math.NaN()
	}
	if !a.sorted {
		sort.Float64s(a.vals)
		a.sorted = true
	}
	return stats.PercentileSorted(a.vals, a.p)
}
func (a *quantileAgg) N() int64 { return int64(len(a.vals)) }

// distinctAgg counts distinct values (exact, via map).
type distinctAgg struct {
	n    int64
	seen map[float64]struct{}
}

func (a *distinctAgg) Add(v float64) {
	if a.seen == nil {
		a.seen = make(map[float64]struct{})
	}
	a.seen[v] = struct{}{}
	a.n++
}
func (a *distinctAgg) Value() float64 { return float64(len(a.seen)) }
func (a *distinctAgg) N() int64       { return a.n }

// --- factories ---

// Count counts tuples per window.
func Count() Factory { return Factory{Name: "count", New: func() Aggregate { return &countAgg{} }} }

// Sum sums tuple values (as an exact-to-~2⁻¹⁰⁶ pair: see sumAgg).
func Sum() Factory { return Factory{Name: "sum", New: func() Aggregate { return &sumAgg{} }} }

// Avg averages tuple values.
func Avg() Factory { return Factory{Name: "avg", New: func() Aggregate { return &avgAgg{} }} }

// StdDev computes the population standard deviation of tuple values.
func StdDev() Factory { return Factory{Name: "stddev", New: func() Aggregate { return &stddevAgg{} }} }

// Min tracks the minimum tuple value.
func Min() Factory { return Factory{Name: "min", New: func() Aggregate { return &minAgg{} }} }

// Max tracks the maximum tuple value.
func Max() Factory { return Factory{Name: "max", New: func() Aggregate { return &maxAgg{} }} }

// Median computes the exact window median.
func Median() Factory {
	return Factory{Name: "median", New: func() Aggregate { return &quantileAgg{p: 0.5} }}
}

// Quantile computes the exact p-quantile of window values; the name
// renders as e.g. "p95". It panics if p is outside (0, 1).
func Quantile(p float64) Factory {
	if p <= 0 || p >= 1 {
		panic("window: quantile must be in (0, 1)")
	}
	return Factory{
		Name: fmt.Sprintf("p%02.0f", p*100),
		New:  func() Aggregate { return &quantileAgg{p: p} },
	}
}

// Distinct counts distinct window values.
func Distinct() Factory {
	return Factory{Name: "distinct", New: func() Aggregate { return &distinctAgg{} }}
}

// ByName resolves an aggregate factory from its CLI name: count, sum, avg,
// stddev, min, max, median, distinct, or pNN for a quantile (e.g. p95).
func ByName(name string) (Factory, error) {
	switch name {
	case "count":
		return Count(), nil
	case "sum":
		return Sum(), nil
	case "avg", "mean":
		return Avg(), nil
	case "stddev", "std":
		return StdDev(), nil
	case "min":
		return Min(), nil
	case "max":
		return Max(), nil
	case "median":
		return Median(), nil
	case "distinct":
		return Distinct(), nil
	}
	if strings.HasPrefix(name, "p") {
		if pct, err := strconv.Atoi(name[1:]); err == nil && pct > 0 && pct < 100 {
			return Quantile(float64(pct) / 100), nil
		}
	}
	return Factory{}, fmt.Errorf("window: unknown aggregate %q", name)
}

// AllFactories returns the full set of aggregate functions covered by the
// evaluation (experiment R4).
func AllFactories() []Factory {
	return []Factory{Count(), Sum(), Avg(), Min(), Max(), Median(), Quantile(0.95), StdDev()}
}
