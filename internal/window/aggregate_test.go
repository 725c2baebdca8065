package window

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func fill(a Aggregate, vs ...float64) Aggregate {
	for _, v := range vs {
		a.Add(v)
	}
	return a
}

func TestAggregateValues(t *testing.T) {
	vs := []float64{4, 1, 3, 2, 5}
	cases := []struct {
		f    Factory
		want float64
	}{
		{Count(), 5},
		{Sum(), 15},
		{Avg(), 3},
		{Min(), 1},
		{Max(), 5},
		{Median(), 3},
		{StdDev(), math.Sqrt(2)},
		{Distinct(), 5},
	}
	for _, c := range cases {
		got := fill(c.f.New(), vs...).Value()
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s(%v) = %v, want %v", c.f.Name, vs, got, c.want)
		}
	}
}

func TestAggregateEmptyIdentity(t *testing.T) {
	zero := map[string]bool{"count": true, "sum": true, "distinct": true}
	for _, f := range append(AllFactories(), Distinct()) {
		a := f.New()
		if a.N() != 0 {
			t.Errorf("%s fresh N = %d", f.Name, a.N())
		}
		v := a.Value()
		if zero[f.Name] {
			if v != 0 {
				t.Errorf("%s empty value = %v, want 0", f.Name, v)
			}
		} else if !math.IsNaN(v) {
			t.Errorf("%s empty value = %v, want NaN", f.Name, v)
		}
	}
}

func TestQuantileAgg(t *testing.T) {
	a := Quantile(0.95).New()
	for i := 1; i <= 100; i++ {
		a.Add(float64(i))
	}
	if got := a.Value(); math.Abs(got-95) > 1.5 {
		t.Fatalf("p95 of 1..100 = %v", got)
	}
	// Interleave Add and Value to exercise the sort cache invalidation.
	a.Add(1000)
	if got := a.Value(); got < 95 {
		t.Fatalf("p95 after outlier = %v", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Quantile(%v) did not panic", p)
				}
			}()
			Quantile(p)
		}()
	}
}

func TestDistinctCountsValues(t *testing.T) {
	a := fill(Distinct().New(), 1, 1, 2, 2, 2, 3)
	if a.Value() != 3 {
		t.Fatalf("distinct = %v, want 3", a.Value())
	}
	if a.N() != 6 {
		t.Fatalf("N = %d, want 6", a.N())
	}
}

func TestMinMaxWithNegatives(t *testing.T) {
	if v := fill(Min().New(), -5, -10, -1).Value(); v != -10 {
		t.Fatalf("min = %v", v)
	}
	if v := fill(Max().New(), -5, -10, -1).Value(); v != -1 {
		t.Fatalf("max = %v", v)
	}
}

func TestSumKahanPrecision(t *testing.T) {
	// 1e16 + many small values loses the small values without
	// compensation.
	a := Sum().New()
	a.Add(1e16)
	for i := 0; i < 10000; i++ {
		a.Add(1)
	}
	if got, want := a.Value(), 1e16+10000; got != want {
		t.Fatalf("compensated sum = %v, want %v", got, want)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"count", "sum", "avg", "mean", "stddev", "std", "min", "max", "median", "distinct", "p95", "p50", "p99"} {
		f, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if f.New() == nil {
			t.Errorf("ByName(%q) factory returned nil", name)
		}
	}
	for _, name := range []string{"", "bogus", "p0", "p100", "pxx"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted", name)
		}
	}
}

func TestAggregatesMatchBruteForce(t *testing.T) {
	rng := stats.NewRNG(301)
	brute := map[string]func([]float64) float64{
		"count": func(vs []float64) float64 { return float64(len(vs)) },
		"sum": func(vs []float64) float64 {
			var s float64
			for _, v := range vs {
				s += v
			}
			return s
		},
		"avg": func(vs []float64) float64 {
			var s float64
			for _, v := range vs {
				s += v
			}
			return s / float64(len(vs))
		},
		"min": func(vs []float64) float64 {
			m := vs[0]
			for _, v := range vs {
				if v < m {
					m = v
				}
			}
			return m
		},
		"max": func(vs []float64) float64 {
			m := vs[0]
			for _, v := range vs {
				if v > m {
					m = v
				}
			}
			return m
		},
		"median": func(vs []float64) float64 { return stats.Percentile(vs, 0.5) },
	}
	factories := map[string]Factory{
		"count": Count(), "sum": Sum(), "avg": Avg(), "min": Min(), "max": Max(), "median": Median(),
	}
	f := func(n uint8) bool {
		vs := make([]float64, int(n%50)+1)
		for i := range vs {
			vs[i] = rng.NormFloat64() * 10
		}
		for name, fac := range factories {
			got := fill(fac.New(), vs...).Value()
			want := brute[name](vs)
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFactoryNames(t *testing.T) {
	want := map[string]bool{"count": true, "sum": true, "avg": true, "min": true,
		"max": true, "median": true, "p95": true, "stddev": true}
	for _, f := range AllFactories() {
		if !want[f.Name] {
			t.Errorf("unexpected factory name %q", f.Name)
		}
		delete(want, f.Name)
	}
	if len(want) != 0 {
		t.Errorf("missing factories: %v", want)
	}
}

// TestSumDoesNotDependOnGrouping pins what the operator's tree rests on: a
// float sum folded one value at a time, one merged from partials cut at
// random places, and one merged in a random order all have the same bits —
// those of the exact total, rounded once. (Kahan's compensated fold, which
// this replaced, is off by an ulp from its own regrouping in about one
// window in ten.)
func TestSumDoesNotDependOnGrouping(t *testing.T) {
	rng := stats.NewRNG(53)
	for seed := 0; seed < 1000; seed++ {
		vs := make([]float64, 2+rng.Intn(3000))
		exact := new(big.Float).SetPrec(4000)
		for i := range vs {
			// Sensor-like readings with a few decades of spread; one seed in
			// four mixes signs, so heads shrink while the parts do not.
			vs[i] = 20 + 5*rng.NormFloat64()*math.Pow(10, float64(rng.Intn(4)))
			if seed%4 == 0 && rng.Intn(3) == 0 {
				vs[i] = -vs[i]
			}
			exact.Add(exact, new(big.Float).SetFloat64(vs[i]))
		}
		want, _ := exact.Float64()

		seq := fill(Sum().New(), vs...)
		var parts []*sumAgg
		for lo := 0; lo < len(vs); {
			hi := lo + 1 + rng.Intn(64)
			if hi > len(vs) {
				hi = len(vs)
			}
			parts = append(parts, fill(Sum().New(), vs[lo:hi]...).(*sumAgg))
			lo = hi
		}
		inOrder := &sumAgg{}
		for _, p := range parts {
			inOrder.MergeFrom(p)
		}
		// A random bracketing: merge random neighbours until one is left.
		for len(parts) > 1 {
			i := rng.Intn(len(parts) - 1)
			parts[i].MergeFrom(parts[i+1])
			parts = append(parts[:i+1], parts[i+2:]...)
		}
		for name, got := range map[string]float64{"sequential": seq.Value(), "left fold of partials": inOrder.Value(), "random bracketing": parts[0].Value()} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d, %d values, %s: sum %v, exact total rounds to %v", seed, len(vs), name, got, want)
			}
		}
		if seq.N() != int64(len(vs)) || parts[0].N() != int64(len(vs)) {
			t.Fatalf("seed %d: counts %d, %d, want %d", seed, seq.N(), parts[0].N(), len(vs))
		}
	}
}
