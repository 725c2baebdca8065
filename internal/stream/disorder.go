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

// MeasureDisorder computes DisorderStats over tuples in their given
// (arrival) order.
func MeasureDisorder(ts []Tuple) DisorderStats {
	var d DisorderStats
	var clock Time
	var sumLate, sumDelay float64
	for i, t := range ts {
		if i == 0 || t.TS > clock {
			clock = t.TS
		}
		late := clock - t.TS
		if late > 0 {
			d.OutOfOrder++
			sumLate += float64(late)
			if late > d.MaxLateness {
				d.MaxLateness = late
			}
		}
		dl := t.Delay()
		sumDelay += float64(dl)
		if dl > d.MaxDelay {
			d.MaxDelay = dl
		}
	}
	d.N = len(ts)
	if d.N > 0 {
		d.MeanLateness = sumLate / float64(d.N)
		d.MeanDelay = sumDelay / float64(d.N)
	}
	return d
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
