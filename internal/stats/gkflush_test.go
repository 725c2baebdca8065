package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// refGK is the Greenwald–Khanna summary as it was before flush merged and
// compressed in one pass: merge, then compress. Its methods are kept
// verbatim as the reference GK must match bit for bit after every flush.
type refGK struct {
	eps     float64
	n       int64
	entries []gkEntry
	spare   []gkEntry // flush merges into this, then swaps it with entries
	pending []float64 // small insert buffer to amortize compress cost
}

func (g *refGK) Add(x float64) {
	g.pending = append(g.pending, x)
	if len(g.pending) >= g.flushThreshold() {
		g.flush()
	}
}

func (g *refGK) flushThreshold() int {
	t := int(1 / (2 * g.eps))
	if t < 16 {
		t = 16
	}
	return t
}

func (g *refGK) flush() {
	if len(g.pending) == 0 {
		return
	}
	sort.Float64s(g.pending)
	out := g.spare[:0]
	i := 0
	for _, x := range g.pending {
		for i < len(g.entries) && g.entries[i].v <= x {
			out = append(out, g.entries[i])
			i++
		}
		var delta int64
		if len(out) == 0 && i >= len(g.entries) {
			delta = 0
		} else if len(out) == 0 || i >= len(g.entries) {
			delta = 0 // new min or max: exact rank
		} else {
			// Interior insertion: floor(2εn)−1, so that g+Δ = floor(2εn)
			// ≤ 2εn keeps the summary invariant the query proof needs.
			delta = int64(2*g.eps*float64(g.n)) - 1
			if delta < 0 {
				delta = 0
			}
		}
		out = append(out, gkEntry{v: x, g: 1, delta: delta})
		g.n++
	}
	out = append(out, g.entries[i:]...)
	g.entries, g.spare = out, g.entries[:0]
	g.pending = g.pending[:0]
	g.compress()
}

// compress merges adjacent entries whose combined uncertainty stays within
// the 2εn band.
func (g *refGK) compress() {
	if len(g.entries) < 3 {
		return
	}
	band := int64(2 * g.eps * float64(g.n))
	out := g.entries[:0]
	out = append(out, g.entries[0])
	for i := 1; i < len(g.entries); i++ {
		e := g.entries[i]
		last := &out[len(out)-1]
		// Never merge away the final (max) entry, and keep the first.
		if len(out) > 1 && i < len(g.entries)-1 && last.g+e.g+e.delta <= band {
			e.g += last.g
			out[len(out)-1] = e
		} else {
			out = append(out, e)
		}
	}
	g.entries = out
}

// Quantile returns a value whose rank is within eps*n of q*n.
func (g *refGK) Quantile(q float64) float64 {
	g.flush()
	if g.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := float64(int64(q*float64(g.n)) + 1)
	if target > float64(g.n) {
		target = float64(g.n)
	}
	allow := g.eps * float64(g.n)
	var rmin int64
	for i, e := range g.entries {
		rmin += e.g
		rmax := rmin + e.delta
		if target-float64(rmin) <= allow && float64(rmax)-target <= allow {
			return e.v
		}
		if i == len(g.entries)-1 {
			break
		}
	}
	return g.entries[len(g.entries)-1].v
}

// FuzzGKFlushMatchesReference: fed the same values, GK and the two-pass
// reference hold bit-identical entries and n after every flush — forced by
// a probe or by the threshold — and answer every Quantile alike. Bytes below 224 add a value (few distinct
// ones, so duplicates abound, −0 among them); the rest probe.
func FuzzGKFlushMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 3, 3, 3, 255, 0, 0, 224}, uint16(0))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 240}, uint16(90))
	long := make([]byte, 6000)
	rng := NewRNG(5)
	for i := range long {
		long[i] = byte(rng.Intn(256)) // a probe every ~8 values
		if i%3 != 0 {
			long[i] %= 224 // mostly adds: threshold flushes too
		}
	}
	f.Add(long, uint16(7))
	f.Add(long, uint16(199))
	f.Fuzz(func(t *testing.T, data []byte, epsSeed uint16) {
		eps := 0.01 + float64(epsSeed%200)/1000 // thresholds 16 to 50
		g, ref := NewGK(eps), &refGK{eps: eps}
		flushes := 0
		for i, b := range data {
			if b < 224 {
				v := float64(int(b%37)-9) + float64(i%3)/4
				if b == 0 {
					v = math.Copysign(0, -1) // beside the +0s
				}
				g.Add(v)
				ref.Add(v)
			} else {
				q := float64(b-224) / 31
				if got, want := g.Quantile(q), ref.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("op %d: Quantile(%v) = %v, reference %v", i, q, got, want)
				}
			}
			if len(g.pending) != len(ref.pending) {
				t.Fatalf("op %d: %d pending, reference %d", i, len(g.pending), len(ref.pending))
			}
			if len(g.pending) > 0 {
				continue
			}
			flushes++
			if g.n != ref.n || !slices.Equal(g.entries, ref.entries) {
				t.Fatalf("op %d: after a flush n=%d entries=%v, reference n=%d entries=%v",
					i, g.n, g.entries, ref.n, ref.entries)
			}
		}
		if len(data) > 1000 && flushes < 100 {
			t.Fatalf("only %d flushes over %d operations", flushes, len(data))
		}
	})
}
