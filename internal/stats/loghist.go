package stats

import (
	"math"
	"math/bits"
)

// LogHist counts non-negative whole numbers exactly, in log-spaced buckets:
// one bucket per value below 128, then 128 per octave, so no bucket spans
// more than 1/128 of the values it holds. Any int64 fits in the first 7 296
// buckets, and only those up to the largest value seen are kept. It is the
// one streaming quantile of the module: the controller counts tuple
// lateness, in stream-time ms, with it (one counter per tuple, one suffix
// pass per adaptation), the Percentile baseline reads its slack from it, and
// aqserver its result-latency p95.
type LogHist struct {
	counts []int64 // counts[i]: values in bucket i
	suffix []int64 // suffix[i]: values in buckets i and above; len(counts)+1
	stale  int     // suffix[:stale] wants rebuilding
	n      int64
	max    float64 // the largest value, exactly; 0 before the first
}

// histSub is the number of buckets per octave, and the values below it that
// each have their own.
const histSub = 128

// histBucket returns the bucket of ⌊x⌋: NaN and negative values count as 0,
// values past the int64 range (+Inf) go to the top bucket.
func histBucket(x float64) int {
	var u uint64
	switch {
	case !(x >= 0): // NaN too
		return 0
	case x >= 1<<63:
		u = math.MaxUint64
	default:
		u = uint64(x)
	}
	if u < histSub {
		return int(u)
	}
	o := bits.Len64(u) - 8 // octave [2^(o+7), 2^(o+8)), in steps of 2^o
	return histSub*(o+1) + int(u>>o&(histSub-1))
}

// histTop returns the largest whole float64 in bucket b: +Inf for the top
// bucket, which holds everything from 2^63 up.
func histTop(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	o := b/histSub - 1
	if o >= 56 {
		return math.Inf(1)
	}
	next := float64(uint64(histSub+b%histSub+1) << o) // the next bucket's lower edge
	return min(next-1, math.Nextafter(next, 0))       // past 2^53 next-1 rounds to next
}

// Add counts x.
func (h *LogHist) Add(x float64) { h.AddN(x, 1) }

// AddN counts x n times.
func (h *LogHist) AddN(x float64, n int64) {
	i := histBucket(x)
	if i >= len(h.counts) {
		h.counts = append(h.counts, make([]int64, i+1-len(h.counts))...)
	}
	h.counts[i] += n
	h.stale = max(h.stale, i+1)
	h.n += n
	if x > h.max { // NaN and negative values leave it, as 0 would
		h.max = x
	}
}

// Max returns the largest value counted, 0 before the first.
func (h *LogHist) Max() float64 { return h.max }

// FracsAbove sets out[j] to the fraction of values strictly greater than
// x + offs[j], and returns out[:len(offs)]. A read counts the whole bucket
// that holds ⌊y⌋+1, so it never under-reports, and overstates by at most
// that bucket's share: below 128 it is exact. At or above the largest value
// it reads 0.
func (h *LogHist) FracsAbove(x float64, offs, out []float64) []float64 {
	if h.stale > 0 {
		h.suffix = append(h.suffix, make([]int64, len(h.counts)+1-len(h.suffix))...)
		above := h.suffix[h.stale] // kept in a register: no store-to-load chain
		for i := h.stale - 1; i >= 0; i-- {
			above += h.counts[i]
			h.suffix[i] = above
		}
		h.stale = 0
	}
	out = out[:0]
	for _, off := range offs {
		f := 0.0
		if y := x + off; h.n > 0 && y < h.max {
			f = float64(h.suffix[histBucket(math.Floor(y)+1)]) / float64(h.n)
		}
		out = append(out, f)
	}
	return out
}

// Quantile returns the largest whole number in the smallest bucket whose
// cumulative count reaches ⌈q·n⌉ (at least one value), capped at the largest
// value, and 0 when the histogram is empty. It is never below the exact
// quantile, lies in its bucket, and below 128 is exact.
func (h *LogHist) Quantile(q float64) float64 {
	target := min(max(int64(math.Ceil(q*float64(h.n))), 1), h.n)
	var cum int64
	for i, c := range h.counts {
		if cum += c; cum >= target {
			return min(histTop(i), h.max)
		}
	}
	return 0
}
