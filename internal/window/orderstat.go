package window

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/fiba"
	"repro/internal/stats"
	"repro/internal/stream"
)

// This file is the tree core's order-statistic mode (fibaOrder): median and
// pNN windows. A quantile has no constant-size partial the tree could cache,
// but consecutive sliding windows share all but one slide's worth of values,
// so the values are sorted once per pane — the event-time interval of width
// gcd(Size, Slide) that every window is a whole number of — and a window's
// quantile is selected across its panes' sorted runs without ever forming
// the window. docs/ALGORITHMS.md §1 derives the bounds.

// run holds one pane's values: vals[:sorted] ascending in slices.Sort's
// order (NaNs first), vals[sorted:] what the disorder handler released into
// the pane after it was sorted, in arrival order. The rest is a selection's:
// vals[lo:hi] are the values that can still hold the wanted rank, and lt and
// le one round's split points — the first value not below the pivot, the
// first above it.
type run struct {
	vals   []float64
	sorted int
	lo, hi int
	lt, le int
}

// paneRuns is the sorted-run state of one operator. The tree stays the only
// record of which tuples are live: a run is built from it, patched beside it
// and never snapshotted, so a restored operator simply starts without any.
type paneRuns struct {
	width stream.Time // pane width: gcd(Size, Slide)
	// ring holds the runs of the Size/width panes one window spans; pane p's
	// is ring[p mod len(ring)]. The panes that have a run are the ones below
	// built that a future window can still read — at most a window's worth,
	// so no two share a slot — and a slot's storage is recycled by the pane
	// that takes it over, which is how a run is dropped (or reallocated, when
	// it is far larger than that pane needs: shrinkAbove).
	ring  []run
	built int64

	live []int32   // the window's non-empty runs, as ring slots; a selection permutes it
	tail []float64 // merge scratch, a run's sorted late arrivals
	out  selected
}

// selected is the Aggregate handed out for an order-statistic window nobody
// retains: the selected value and the window's count, good until the next
// emission.
type selected struct {
	v float64
	n int64
}

func (a *selected) Add(float64)    { panic("window: a selected order statistic is read-only") }
func (a *selected) Value() float64 { return a.v }
func (a *selected) N() int64       { return a.n }

func gcd(a, b stream.Time) stream.Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func newPaneRuns(spec Spec) *paneRuns {
	w := gcd(spec.Size, spec.Slide)
	k := int(spec.Size / w)
	return &paneRuns{width: w, ring: make([]run, k), built: math.MinInt64, live: make([]int32, 0, k)}
}

// shrinkAbove bounds a slot's capacity in multiples of what the run rebuilt in
// it holds: beyond that the slot is reallocated to fit. It is above what
// append's growth leaves (under 2×), so a steady stream keeps its slots.
const shrinkAbove = 4

func (o *paneRuns) slot(pane int64) int {
	k := int64(len(o.ring))
	return int(((pane % k) + k) % k)
}

// patch adds a value the tree has just taken to its pane's run, if the pane
// has one: the tuple was late for the windows that built the run and is live
// for later ones. (A pane with a run that can still receive a tuple is one a
// future window reads, so its slot is its own.)
func (o *paneRuns) patch(ts stream.Time, v float64) {
	if p := floorDiv(ts, o.width); p < o.built {
		r := &o.ring[o.slot(p)]
		r.vals = append(r.vals, v)
	}
}

// gather readies the runs of the window [start, end) — builds those no window
// has read yet from the tree, merges late arrivals into the others — and
// lists the non-empty ones, in pane order, in o.live. It returns the window's
// count.
func (o *paneRuns) gather(tree *fiba.Tree[treePart], start, end stream.Time) int {
	first, last := int64(start/o.width), int64(end/o.width) // both multiples of width
	if o.built < first {
		o.built = first
	}
	o.live = o.live[:0]
	n := 0
	for p, i := first, o.slot(first); p < last; p, i = p+1, i+1 {
		if i == len(o.ring) {
			i = 0
		}
		r := &o.ring[i]
		if p >= o.built {
			r.vals, r.sorted = r.vals[:0], 0
			lo := stream.Time(p) * o.width
			tree.RangeEach(lo, lo+o.width, func(v float64) { r.vals = append(r.vals, v) })
			if cap(r.vals) > shrinkAbove*len(r.vals) {
				// The slot held a far larger pane once (a burst, per key under
				// GROUP BY): give the memory back.
				r.vals = append([]float64(nil), r.vals...)
			}
		}
		if r.sorted < len(r.vals) {
			o.tail = r.settle(o.tail)
		}
		if len(r.vals) > 0 {
			o.live = append(o.live, int32(i))
			n += len(r.vals)
		}
	}
	o.built = last
	return n
}

// settle sorts the run: the unsorted tail by itself, then one backward merge
// into the sorted prefix (in cmp.Less order, which is slices.Sort's: NaNs
// first and equal, -0 equal to +0) through buf, which it returns for reuse. The cost is
// that of the tail's sort plus the part of the prefix above the tail's
// smallest value.
func (r *run) settle(buf []float64) []float64 {
	slices.Sort(r.vals[r.sorted:])
	if r.sorted > 0 {
		buf = append(buf[:0], r.vals[r.sorted:]...)
		i, w := r.sorted-1, len(r.vals)-1
		for j := len(buf) - 1; j >= 0; w-- {
			if i >= 0 && cmp.Less(buf[j], r.vals[i]) {
				r.vals[w] = r.vals[i]
				i--
			} else {
				r.vals[w] = buf[j]
				j--
			}
		}
	}
	r.sorted = len(r.vals)
	return buf
}

// orderStat materializes the order-statistic window [start, end): nil when it
// is empty; for a caller that retains it (RefineLate) a real quantileAgg over
// the window's values, which late tuples are then added to; otherwise the
// quantile itself, selected across the runs — what stats.PercentileSorted
// returns for the sorted window, to the bit, because the two ranks it reads
// are found exactly and combined by the same arithmetic.
func (s *fibaState) orderStat(f Factory, start, end stream.Time, retain bool) Aggregate {
	if k, ok := s.tree.MinKey(); !ok || k.TS >= end {
		return nil // nothing live before the window's end: a gap in the stream costs no pane work
	}
	if s.order == nil {
		s.order = newPaneRuns(s.spec)
	}
	o := s.order
	n := o.gather(s.tree, start, end)
	if n == 0 {
		return nil
	}
	if retain {
		a := f.New().(*quantileAgg)
		a.vals = make([]float64, 0, n)
		for _, i := range o.live {
			a.vals = append(a.vals, o.ring[i].vals...)
		}
		return a
	}
	i, frac := stats.PercentileRank(n, s.p)
	v, next := selectPair(o.ring, o.live, i)
	if i+1 < n {
		v = stats.Lerp(v, next, frac)
	}
	o.out = selected{v: v, n: int64(n)}
	return &o.out
}

// fewInPlay is how few values in play end a selection's rounds: that many are
// cheaper to sort by insertion on the stack than to halve a few times more.
const fewInPlay = 32

// selectPair returns the values at ranks t and t+1 (from 0; next is
// meaningless when t is the last rank) of the multiset held in the runs that
// live lists, each sorted in cmp.Less order, 0 ≤ t < the total count. It
// permutes live and uses the runs' cursors.
//
// Each round takes a pivot from the run with the most values in play, finds
// by binary search how many values in play are below it and how many not
// above it in every run, and keeps only the side that holds rank t, so the
// pivot always leaves play. A middle pivot halves the longest run, and with
// runs alike in distribution — one source's consecutive panes — the others
// with it: O(log n) rounds of k searches of O(log m) steps. Runs with nothing
// left in play are moved behind the others and not visited again. The rounds
// end when the pivot is the rank-t value or few values are left in play; in
// both cases every run's hi cursor then stands at its first value above rank
// t's, and the least of those is rank t+1 unless it was found in play.
func selectPair(runs []run, live []int32, t int) (at, next float64) {
	// NaNs sort first; what follows them is ordered by <.
	below := 0 // values known to rank below everything in play
	for _, i := range live {
		r := &runs[i]
		r.lo, r.hi = 0, len(r.vals)
		for r.lo < r.hi && r.vals[r.lo] != r.vals[r.lo] {
			r.lo++
		}
		below += r.lo
	}
	if t < below {
		for _, i := range live {
			r := &runs[i]
			if r.lo > 0 {
				at = r.vals[0]
			}
			r.hi = r.lo
		}
		if t+1 < below {
			return at, at
		}
		return at, leastAbove(runs, live)
	}
	for n, round := len(live), 0; ; {
		var big *run
		most, inPlay := 0, 0
		for j := 0; j < n; {
			r := &runs[live[j]]
			if r.lo == r.hi {
				n--
				live[j], live[n] = live[n], live[j]
				continue
			}
			if r.hi-r.lo > most {
				big, most = r, r.hi-r.lo
			}
			inPlay += r.hi - r.lo
			j++
		}
		if inPlay <= fewInPlay {
			var few [fewInPlay]float64
			m := 0
			for _, i := range live[:n] {
				r := &runs[i]
				for _, v := range r.vals[r.lo:r.hi] {
					j := m
					for ; j > 0 && few[j-1] > v; j-- {
						few[j] = few[j-1]
					}
					few[j] = v
					m++
				}
			}
			if t-below+1 < m {
				return few[t-below], few[t-below+1]
			}
			return few[t-below], leastAbove(runs, live)
		}
		// The pivot comes from the run with the most in play: every other
		// round its middle, which halves that run whatever the data; the
		// rounds between, the value at the wanted rank's relative position,
		// which lands within a few percent of the rank when the runs are alike.
		pos := big.lo + most/2
		if round++; round&1 == 1 {
			pos = big.lo + (t-below)*most/inPlay
		}
		pivot := big.vals[pos]
		lt, le := below, below
		for _, i := range live[:n] {
			r := &runs[i]
			a, b := r.lo, r.hi
			for a < b {
				if m := int(uint(a+b) >> 1); r.vals[m] < pivot {
					a = m + 1
				} else {
					b = m
				}
			}
			r.lt = a
			if a < r.hi && r.vals[a] == pivot { // rare in measured data: search the equals only then
				for b = r.hi; a < b; {
					if m := int(uint(a+b) >> 1); r.vals[m] <= pivot {
						a = m + 1
					} else {
						b = m
					}
				}
			}
			r.le = a
			lt += r.lt - r.lo
			le += r.le - r.lo
		}
		switch {
		case t < lt:
			for _, i := range live[:n] {
				runs[i].hi = runs[i].lt
			}
		case t >= le:
			for _, i := range live[:n] {
				runs[i].lo = runs[i].le
			}
			below = le
		default:
			if t+1 < le {
				return pivot, pivot
			}
			for _, i := range live[:n] {
				runs[i].hi = runs[i].le
			}
			return pivot, leastAbove(runs, live)
		}
	}
}

// leastAbove returns the least of the values the runs' hi cursors stand at.
func leastAbove(runs []run, live []int32) float64 {
	least := math.Inf(1)
	for _, i := range live {
		if r := &runs[i]; r.hi < len(r.vals) && r.vals[r.hi] < least {
			least = r.vals[r.hi]
		}
	}
	return least
}
