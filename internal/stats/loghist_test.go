package stats

import (
	"math"
	"slices"
	"testing"
)

// histLower is the smallest whole number in bucket b.
func histLower(b int) uint64 {
	if b < histSub {
		return uint64(b)
	}
	o, m := (b-histSub)/histSub, (b-histSub)%histSub
	return uint64(histSub+m) << o
}

// TestLogHistBuckets: the buckets tile the int64 range in order, each below
// 128 holds one, none above is wider than 1/128 of its lower edge, and every
// int64 fits in the first 7 296; larger values and +Inf share the top one.
func TestLogHistBuckets(t *testing.T) {
	last := histBucket(math.Nextafter(1<<63, 0)) // the largest float64 below 2^63
	if top := histBucket(math.Inf(1)); last != 7295 || top != 7423 || histBucket(1<<63) != top {
		t.Fatalf("2^63−1024 in bucket %d, 2^63 in %d, +Inf in %d; want 7295, 7423, 7423", last, histBucket(1<<63), top)
	}
	for b := 0; b <= last; b++ {
		lo := histLower(b)
		if got := histBucket(float64(lo)); got != b {
			t.Fatalf("bucket %d: its lower edge %d falls in %d", b, lo, got)
		}
		if b == 0 {
			continue
		}
		if got := histBucket(float64(lo - 1)); got != b-1 && lo < 1<<53 {
			t.Fatalf("bucket %d: %d, just below its edge, falls in %d", b, lo-1, got)
		}
		if w := lo - histLower(b-1); b-1 < histSub && w != 1 || b-1 >= histSub && w > histLower(b-1)/histSub {
			t.Fatalf("bucket %d is %d wide from %d", b-1, w, histLower(b-1))
		}
	}
}

// TestLogHistSpecialValues: NaN and negative values count as 0, +Inf in the
// top bucket, and the empty histogram reads 0 everywhere. Quantile reads the
// smallest value at q = 0, the largest at q = 1, and +Inf only from the top.
func TestLogHistSpecialValues(t *testing.T) {
	quantiles := func(h *LogHist) []float64 {
		return []float64{h.Quantile(0), h.Quantile(0.5), h.Quantile(0.75), h.Quantile(1)}
	}
	var h LogHist
	if got := h.FracsAbove(-5, []float64{0, 10}, nil); !slices.Equal(got, []float64{0, 0}) || h.Max() != 0 {
		t.Fatalf("empty histogram reads %v, max %v", got, h.Max())
	}
	if got := quantiles(&h); !slices.Equal(got, []float64{0, 0, 0, 0}) {
		t.Fatalf("empty histogram's quantiles %v", got)
	}
	h.Add(math.NaN())
	h.Add(-3)
	if got := h.FracsAbove(-1, []float64{0, 0.5, 1}, nil); !slices.Equal(got, []float64{1, 1, 0}) || h.Max() != 0 {
		t.Fatalf("two zeros read %v, max %v", got, h.Max())
	}
	if got := quantiles(&h); !slices.Equal(got, []float64{0, 0, 0, 0}) {
		t.Fatalf("two zeros' quantiles %v", got)
	}
	h.Add(math.Inf(1))
	h.Add(7)
	if got := h.FracsAbove(0, []float64{0, 7, 1e300}, nil); !slices.Equal(got, []float64{0.5, 0.25, 0.25}) || !math.IsInf(h.Max(), 1) {
		t.Fatalf("0, 0, 7, +Inf read %v, max %v", got, h.Max())
	}
	if got := quantiles(&h); !slices.Equal(got, []float64{0, 0, 7, math.Inf(1)}) {
		t.Fatalf("0, 0, 7, +Inf have quantiles %v", got)
	}
	h.Add(1000)
	if got := h.Quantile(0.8); got != 1003 {
		t.Fatalf("0, 0, 7, 1000, +Inf: p80 %v, want 1003, the top of 1000's bucket [1000, 1003]", got)
	}
}

// FuzzLogHist: for any whole non-negative values, every read of the
// fraction above y counts the values from the lower edge of the bucket that
// holds ⌊y⌋+1 up, so it lies between the exact fraction above y and that
// above the edge; it is exact below 128 and 0 at or above the largest value.
// Every quantile lies in the bucket of the exact ⌈q·n⌉-th value, at or above
// it and at or below the largest value, and is that value below 128. A
// histogram restored from another's state reads the same. Each pair of bytes
// is a value, b0·2^(b1 mod 56); probes sit at, between and beside them, and
// the fuzzed x, folded into [0, 1], is one more q.
func FuzzLogHist(f *testing.F) {
	f.Add([]byte{1, 0, 5, 0, 127, 0, 128, 0, 255, 0}, 3.5)
	f.Add([]byte{3, 7, 200, 12, 9, 40, 255, 55, 0, 0, 17, 1}, 1000.0)
	f.Add([]byte{130, 3, 131, 3, 129, 3, 200, 3}, -2.0)
	f.Fuzz(func(t *testing.T, data []byte, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		var h LogHist
		var xs []float64
		check := func(h *LogHist) {
			t.Helper()
			probes := []float64{-1, 0, 0.5, 126, 127.5, 128, math.Abs(x)}
			for _, v := range xs {
				probes = append(probes, v-1, v, v+0.5)
			}
			slices.Sort(probes)
			got := h.FracsAbove(x, probes, nil)
			for j, off := range probes {
				y := x + off
				var above, fromEdge int
				edge := histLower(histBucket(math.Floor(y) + 1))
				for _, v := range xs {
					if v > y {
						above++
					}
					if v >= float64(edge) {
						fromEdge++
					}
				}
				n := float64(max(len(xs), 1))
				want := float64(fromEdge) / n
				if y >= h.Max() {
					want = 0
				}
				if got[j] != want || got[j] < float64(above)/n || y < 127 && got[j] != float64(above)/n {
					t.Fatalf("%d values: fraction above %v reads %v; exact %v, from the bucket edge %d %v",
						len(xs), y, got[j], float64(above)/n, edge, want)
				}
			}
			if len(xs) == 0 {
				return
			}
			sorted := slices.Clone(xs)
			slices.Sort(sorted)
			for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.95, 0.999, 1, math.Abs(math.Mod(x, 1))} {
				exact := sorted[max(int(math.Ceil(q*float64(len(xs)))), 1)-1]
				got := h.Quantile(q)
				if got < exact || got > h.Max() || histBucket(got) != histBucket(exact) || exact < histSub && got != exact {
					t.Fatalf("%d values: quantile %v reads %v; exact %v, max %v", len(xs), q, got, exact, h.Max())
				}
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			v := float64(uint64(data[i]) << (data[i+1] % 56))
			h.Add(v)
			xs = append(xs, v)
			if i%6 == 4 {
				check(&h) // reads between adds
			}
		}
		check(&h)
		if len(xs) > 0 && h.Max() != slices.Max(xs) {
			t.Fatalf("max %v, want %v", h.Max(), slices.Max(xs))
		}
		var r LogHist
		r.Restore(h.State())
		check(&r)
		if st := r.State(); !slices.Equal(st.Counts, h.State().Counts) || st.Max != h.Max() {
			t.Fatalf("restored state %+v, want %+v", st, h.State())
		}
	})
}
