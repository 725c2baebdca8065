package stats

import (
	"fmt"
	"slices"
	"sort"
)

// P2 is the P² (P-square) streaming estimator of a single quantile
// (Jain & Chlamtac 1985). It keeps five markers and adjusts them with a
// piecewise-parabolic formula, giving O(1) memory and update cost. It is
// the cheap estimator used on per-tuple hot paths; GK below provides
// rank-error guarantees when they are needed.
type P2 struct {
	p     float64    // target quantile
	n     int        // observations so far
	q     [5]float64 // marker heights
	pos   [5]int     // marker positions (1-based ranks)
	des   [5]float64 // desired positions
	dpos  [5]float64 // desired position increments
	first [5]float64 // initial buffer until 5 samples arrive
}

// NewP2 returns a P² estimator for quantile p in (0, 1).
func NewP2(p float64) *P2 {
	if p <= 0 || p >= 1 {
		panic("stats: P2 quantile must be in (0, 1)")
	}
	e := &P2{p: p}
	e.dpos = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Add incorporates x.
func (e *P2) Add(x float64) {
	if e.n < 5 {
		e.first[e.n] = x
		e.n++
		if e.n == 5 {
			s := e.first
			sort.Float64s(s[:])
			e.q = s
			for i := range e.pos {
				e.pos[i] = i + 1
			}
			e.des = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
		}
		return
	}
	e.n++

	// Find the cell k such that q[k] <= x < q[k+1], extending extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.des {
		e.des[i] += e.dpos[i]
	}

	// Adjust interior markers.
	for i := 1; i <= 3; i++ {
		d := e.des[i] - float64(e.pos[i])
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1
			if d < 0 {
				sign = -1
			}
			qn := e.parabolic(i, sign)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.pos[i] += sign
		}
	}
}

func (e *P2) parabolic(i, d int) float64 {
	df := float64(d)
	num1 := float64(e.pos[i]-e.pos[i-1]) + df
	num2 := float64(e.pos[i+1]-e.pos[i]) - df
	den := float64(e.pos[i+1] - e.pos[i-1])
	t1 := (e.q[i+1] - e.q[i]) / float64(e.pos[i+1]-e.pos[i])
	t2 := (e.q[i] - e.q[i-1]) / float64(e.pos[i]-e.pos[i-1])
	return e.q[i] + df/den*(num1*t1+num2*t2)
}

func (e *P2) linear(i, d int) float64 {
	return e.q[i] + float64(d)*(e.q[i+d]-e.q[i])/float64(e.pos[i+d]-e.pos[i])
}

// Value returns the current quantile estimate. Before five observations it
// falls back to the exact quantile of the buffered samples.
func (e *P2) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		s := make([]float64, e.n)
		copy(s, e.first[:e.n])
		sort.Float64s(s)
		return percentileSorted(s, e.p)
	}
	return e.q[2]
}

// gkEntry is one tuple of the Greenwald–Khanna summary.
type gkEntry struct {
	v     float64
	g     int64 // rmin(v_i) - rmin(v_{i-1})
	delta int64 // rmax(v_i) - rmin(v_i)
}

// GK is a Greenwald–Khanna ε-approximate quantile summary: Quantile(q)
// returns a value whose rank differs from ceil(q·n) by at most ε·n. Memory
// is O((1/ε)·log(ε·n)). The Percentile baseline handler reads its slack
// from it, and cmd/benchgen its lateness quantiles.
type GK struct {
	eps     float64
	flushAt int // pending values that trigger a flush: flushThreshold(eps)
	n       int64
	entries []gkEntry
	spare   []gkEntry // flush merges into this, then swaps it with entries
	pending []float64 // small insert buffer to amortize the merge
}

// NewGK returns a summary with rank error at most eps in (0, 1).
func NewGK(eps float64) *GK {
	if eps <= 0 || eps >= 1 {
		panic("stats: GK epsilon must be in (0, 1)")
	}
	return &GK{eps: eps, flushAt: flushThreshold(eps)}
}

// Add incorporates x.
func (g *GK) Add(x float64) {
	g.pending = append(g.pending, x)
	if len(g.pending) >= g.flushAt {
		g.flush()
	}
}

// flushThreshold is how many pending values a sketch of rank error eps
// buffers before it merges them: 1/(2·eps), at least 16.
func flushThreshold(eps float64) int {
	t := int(1 / (2 * eps))
	if t < 16 {
		t = 16
	}
	return t
}

// flush merges the sorted pending values into the summary and compresses
// it in the same pass: each merged entry but the last absorbs the entry
// before it, unless that is the first, when their combined uncertainty
// stays within the 2εn band of the post-merge n.
func (g *GK) flush() {
	if len(g.pending) == 0 {
		return
	}
	sort.Float64s(g.pending)
	last := len(g.entries) + len(g.pending) - 1 // merged index of the max
	band := int64(2 * g.eps * float64(g.n+int64(len(g.pending))))
	out := slices.Grow(g.spare[:0], last+1)[:last+1]
	w, k, i := 0, 0, 0 // entries written, merged, taken from g.entries
	push := func(e gkEntry) {
		if w > 1 && k < last && out[w-1].g+e.g+e.delta <= band {
			e.g += out[w-1].g
			w--
		}
		out[w] = e
		w++
		k++
	}
	for _, x := range g.pending {
		for ; i < len(g.entries) && g.entries[i].v <= x; i++ {
			push(g.entries[i])
		}
		e := gkEntry{v: x, g: 1}
		if w > 0 && i < len(g.entries) {
			// Interior insertion: floor(2εn)−1, so that g+Δ = floor(2εn)
			// ≤ 2εn keeps the summary invariant the query proof needs. A
			// new min or max has an exact rank.
			e.delta = max(int64(2*g.eps*float64(g.n))-1, 0)
		}
		g.n++
		push(e)
	}
	for ; i < len(g.entries); i++ {
		push(g.entries[i])
	}
	g.entries, g.spare = out[:w], g.entries[:0]
	g.pending = g.pending[:0]
}

// Quantile returns a value whose rank is within eps*n of q*n.
func (g *GK) Quantile(q float64) float64 {
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
	// The allowance must stay real-valued: truncating εn to an integer
	// (e.g. 0.95 → 0) can make the rank test unsatisfiable for every
	// entry even though the summary invariant guarantees a witness.
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

// N returns the number of observations.
func (g *GK) N() int64 { return g.n + int64(len(g.pending)) }

// String describes the summary.
func (g *GK) String() string {
	return fmt.Sprintf("gk[eps=%g n=%d entries=%d]", g.eps, g.N(), len(g.entries))
}
