package stats

import (
	"math"
	"sort"
)

// Percentile computes the exact p-quantile (p in [0,1]) of xs using linear
// interpolation between closest ranks. It sorts a copy; use it for offline
// analysis, not per-tuple paths.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// PercentileSorted computes the exact p-quantile of an already sorted slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	i, frac := PercentileRank(len(s), p)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return Lerp(s[i], s[i+1], frac)
}

// PercentileRank says where the p-quantile (0 < p < 1) of n sorted values
// lies: frac of the way from the value at rank i to the one at rank i+1, or
// at the last value when i+1 == n. With Lerp it is the whole of
// PercentileSorted's arithmetic, for a caller that can produce the two
// values without holding the sorted slice (window's order-statistic
// selection) and must still answer to the bit what PercentileSorted would.
func PercentileRank(n int, p float64) (i int, frac float64) {
	pos := p * float64(n-1)
	i = int(pos)
	return i, pos - float64(i)
}

// Lerp returns the point frac of the way from a to b, as PercentileSorted
// rounds it.
func Lerp(a, b, frac float64) float64 { return a + frac*(b-a) }
