package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileExact(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("percentile of empty slice should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile mutated input: %v", xs)
	}
}

func TestP2AgainstExact(t *testing.T) {
	rng := NewRNG(41)
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		e := NewP2(p)
		xs := make([]float64, 50000)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 100 // skewed like a delay distribution
			e.Add(xs[i])
		}
		exact := Percentile(xs, p)
		got := e.Value()
		// P² is a heuristic; accept 5% relative error on a smooth
		// distribution of this size.
		if math.Abs(got-exact) > 0.05*exact+1 {
			t.Errorf("P2(%v) = %v, exact %v", p, got, exact)
		}
	}
}

func TestP2SmallN(t *testing.T) {
	e := NewP2(0.5)
	if e.Value() != 0 {
		t.Fatal("empty P2 should return 0")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("single-sample P2 = %v, want 10", e.Value())
	}
	e.Add(20)
	e.Add(30)
	if got := e.Value(); got < 10 || got > 30 {
		t.Fatalf("3-sample median %v outside range", got)
	}
	if e.n != 3 {
		t.Fatalf("N = %d, want 3", e.n)
	}
}

func TestP2PanicsOnBadQuantile(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewP2(%v) did not panic", p)
				}
			}()
			NewP2(p)
		}()
	}
}

func TestGKRankErrorBound(t *testing.T) {
	rng := NewRNG(43)
	const eps = 0.01
	const n = 20000
	g := NewGK(eps)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64Range(0, 1000)
		g.Add(xs[i])
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		v := g.Quantile(q)
		// Verify the rank of v is within eps*n of the target rank.
		rank := sort.SearchFloat64s(xs, v)
		target := q * n
		if math.Abs(float64(rank)-target) > 2*eps*n+1 {
			t.Errorf("q=%v: value %v has rank %d, target %v (allow ±%v)",
				q, v, rank, target, 2*eps*n)
		}
	}
}

func TestGKExtremes(t *testing.T) {
	g := NewGK(0.05)
	for i := 1; i <= 1000; i++ {
		g.Add(float64(i))
	}
	if v := g.Quantile(0); v > 1000*0.05*2+1 {
		t.Errorf("Quantile(0) = %v, want near 1", v)
	}
	if v := g.Quantile(1); v < 1000*(1-0.05*2)-1 {
		t.Errorf("Quantile(1) = %v, want near 1000", v)
	}
}

func TestGKEmpty(t *testing.T) {
	g := NewGK(0.01)
	if g.Quantile(0.5) != 0 {
		t.Fatal("empty GK quantile should be 0")
	}
	if g.N() != 0 {
		t.Fatal("empty GK N should be 0")
	}
}

func TestGKMemoryBounded(t *testing.T) {
	g := NewGK(0.01)
	rng := NewRNG(47)
	for i := 0; i < 200000; i++ {
		g.Add(rng.Float64())
	}
	// The summary should be far smaller than the input; the theoretical
	// bound is O((1/eps) log(eps n)) ≈ a few thousand entries at most.
	g.flush()
	if s := len(g.entries); s > 20000 {
		t.Fatalf("GK summary grew to %d entries for 200k inputs", s)
	}
}

func TestGKMonotoneQuantiles(t *testing.T) {
	rng := NewRNG(53)
	g := NewGK(0.02)
	for i := 0; i < 5000; i++ {
		g.Add(rng.NormFloat64())
	}
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw) / 65535
		b := float64(bRaw) / 65535
		if a > b {
			a, b = b, a
		}
		return g.Quantile(a) <= g.Quantile(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGKSortedInsertions(t *testing.T) {
	// Sorted and reverse-sorted inputs are the adversarial cases for
	// summary maintenance.
	for name, gen := range map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(10000 - i) },
	} {
		g := NewGK(0.02)
		for i := 0; i < 10000; i++ {
			g.Add(gen(i))
		}
		med := g.Quantile(0.5)
		if math.Abs(med-5000) > 10000*0.05 {
			t.Errorf("%s: median %v, want ~5000", name, med)
		}
	}
}

// TestGKSteadyStateAllocatesNothing: once both merge buffers have grown to
// the summary's size, a flush swaps them instead of building a new slice,
// so a flush-threshold's worth of Adds, then a probe, allocates nothing.
func TestGKSteadyStateAllocatesNothing(t *testing.T) {
	g := NewGK(0.002)
	rng := NewRNG(31)
	for i := 0; i < 200000; i++ {
		g.Add(rng.ExpFloat64())
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 250; i++ {
			g.Add(rng.ExpFloat64())
		}
		g.Quantile(0.5)
	})
	if allocs != 0 {
		t.Fatalf("warmed GK Add×250 + Quantile allocates %v times, want 0", allocs)
	}
}
