package stream

import "fmt"

// DisorderStats summarizes how out-of-order an arrival-ordered tuple
// sequence is. Lateness of a tuple is defined against the stream clock:
// L(i) = max event timestamp among tuples arriving no later than i, minus
// ts(i). In-order tuples have L = 0.
type DisorderStats struct {
	N            int     // tuples observed
	OutOfOrder   int     // tuples with lateness > 0
	MaxLateness  Time    // largest observed lateness
	MeanLateness float64 // mean lateness over all tuples (in-order count as 0)
	MeanDelay    float64 // mean transport delay (arrival - ts)
	MaxDelay     Time    // largest transport delay
}

// FracOutOfOrder returns the fraction of tuples that arrived late.
func (d DisorderStats) FracOutOfOrder() float64 {
	if d.N == 0 {
		return 0
	}
	return float64(d.OutOfOrder) / float64(d.N)
}

// String renders the summary.
func (d DisorderStats) String() string {
	return fmt.Sprintf("disorder{n=%d ooo=%.1f%% maxLate=%d meanLate=%.1f maxDelay=%d}",
		d.N, 100*d.FracOutOfOrder(), d.MaxLateness, d.MeanLateness, d.MaxDelay)
}

// DisorderAcc measures DisorderStats as an arrival-ordered stream passes,
// without retaining it. Its fields are exported so that a snapshot can carry
// it (durable.DisorderCut).
type DisorderAcc struct {
	Stats    DisorderStats // counts and maxima so far; Finish adds the means
	SumLate  float64
	SumDelay float64
	Clock    Time // the largest event time so far
	Started  bool // a tuple has been observed, so Clock holds
}

// Observe folds a batch's data tuples in, in arrival order; heartbeats carry
// none. This is the one definition of a tuple's lateness and delay. The
// accumulator is held in locals across the batch: a driver's intake runs
// this over every tuple it steps.
func (d *DisorderAcc) Observe(items []Item) {
	st, sumLate, sumDelay, clock, started := d.Stats, d.SumLate, d.SumDelay, d.Clock, d.Started
	for i := range items {
		t := &items[i].Tuple
		if items[i].Heartbeat {
			continue
		}
		if !started || t.TS > clock {
			clock, started = t.TS, true
		}
		if l := clock - t.TS; l > 0 {
			st.OutOfOrder++
			sumLate += float64(l)
			st.MaxLateness = max(st.MaxLateness, l)
		}
		dl := t.Delay()
		sumDelay += float64(dl)
		st.MaxDelay = max(st.MaxDelay, dl)
		st.N++
	}
	d.Stats, d.SumLate, d.SumDelay, d.Clock, d.Started = st, sumLate, sumDelay, clock, started
}

// Finish returns the stats so far, means included.
func (d *DisorderAcc) Finish() DisorderStats {
	st := d.Stats
	if st.N > 0 {
		st.MeanLateness = d.SumLate / float64(st.N)
		st.MeanDelay = d.SumDelay / float64(st.N)
	}
	return st
}

// MeasureDisorder computes DisorderStats over tuples in their given
// (arrival) order: a DisorderAcc fed them in batches.
func MeasureDisorder(ts []Tuple) DisorderStats {
	var d DisorderAcc
	var batch [128]Item
	for len(ts) > 0 {
		n := min(len(ts), len(batch))
		for i, t := range ts[:n] {
			batch[i] = DataItem(t)
		}
		d.Observe(batch[:n])
		ts = ts[n:]
	}
	return d.Finish()
}

// Inversions counts pairs (i, j) with i < j in arrival order but
// ts(i) > ts(j) — the classic disorder measure. It runs in O(n log n) via
// merge counting and does not modify the input.
func Inversions(ts []Tuple) int64 {
	if len(ts) < 2 {
		return 0
	}
	keys := make([]Time, len(ts))
	for i, t := range ts {
		keys[i] = t.TS
	}
	buf := make([]Time, len(keys))
	return mergeCount(keys, buf)
}

func mergeCount(a, buf []Time) int64 {
	n := len(a)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := mergeCount(a[:mid], buf[:mid]) + mergeCount(a[mid:], buf[mid:])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if a[i] <= a[j] {
			buf[k] = a[i]
			i++
		} else {
			buf[k] = a[j]
			j++
			inv += int64(mid - i)
		}
		k++
	}
	copy(buf[k:], a[i:mid])
	copy(buf[k+mid-i:], a[j:])
	copy(a, buf[:n])
	return inv
}
