package stats

import (
	"math"
	"sort"
	"testing"
)

// FuzzGKQuantile checks the Greenwald–Khanna rank-error guarantee on
// arbitrary byte-derived inputs (run with `go test -fuzz=FuzzGKQuantile`;
// the seeds below also run as ordinary tests).
func FuzzGKQuantile(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 0.5)
	f.Add([]byte{255, 254, 253, 0, 0, 0}, 0.9)
	f.Add([]byte{9}, 0.01)
	f.Add([]byte{}, 0.99)
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if math.IsNaN(q) || q < 0 || q > 1 {
			q = 0.5
		}
		const eps = 0.05
		g := NewGK(eps)
		xs := make([]float64, 0, len(data)*4)
		// Derive a value stream from the bytes with some repetition to
		// exercise duplicate handling.
		for i, b := range data {
			v := float64(b) + float64(i%7)/10
			for r := 0; r <= int(b)%3; r++ {
				g.Add(v)
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			if got := g.Quantile(q); got != 0 {
				t.Fatalf("empty sketch quantile = %v", got)
			}
			return
		}
		got := g.Quantile(q)
		sort.Float64s(xs)
		// Rank of got must be within 2*eps*n + 1 of the target rank.
		lo := sort.SearchFloat64s(xs, got)
		hi := sort.Search(len(xs), func(i int) bool { return xs[i] > got })
		target := q * float64(len(xs))
		allow := 2*eps*float64(len(xs)) + 1
		if float64(hi) < target-allow || float64(lo) > target+allow {
			t.Fatalf("rank error: value %v has rank [%d,%d], target %v ± %v (n=%d)",
				got, lo, hi, target, allow, len(xs))
		}
	})
}

// FuzzP2Bounds checks the P² estimator always returns a value within the
// observed range.
func FuzzP2Bounds(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40, 50, 60})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		e := NewP2(0.9)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, b := range data {
			v := float64(b)
			e.Add(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		got := e.Value()
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Fatalf("P2 value %v outside observed range [%v, %v]", got, lo, hi)
		}
	})
}
