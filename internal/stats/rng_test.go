package stats

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: same seed diverged: %d vs %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	var zeros int
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("seed 0 produced %d zero outputs; state may be absorbing", zeros)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("bucket %d count %d deviates >10%% from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.NormFloat64())
	}
	if m := w.Mean(); math.Abs(m) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", m)
	}
	if s := w.Std(); math.Abs(s-1) > 0.02 {
		t.Fatalf("normal std = %v, want ~1", s)
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	var w Welford
	for i := 0; i < 200000; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("exponential variate negative: %v", x)
		}
		w.Add(x)
	}
	if m := w.Mean(); math.Abs(m-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", m)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := NewRNG(23)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d -> %d", sum, got)
	}
}

// TestIntnUint64sMatchesCalls: the batched draw returns, pair by pair, what
// alternating Intn(n), Uint64 calls return — Float64 its top 53 bits — and
// leaves the generator where they leave it: for a power-of-two n (the
// mask), n = 1, an n that is not one, and n = 3·2⁶¹, where 2⁶⁴ mod n = 2⁶²
// and a quarter of the raw draws are rejected.
func TestIntnUint64sMatchesCalls(t *testing.T) {
	for _, n := range []int{4096, 1, 3001, 3 << 61} {
		batched, calls := NewRNG(uint64(n)), NewRNG(uint64(n))
		idx, u := make([]int, 997), make([]uint64, 997)
		for round := 0; round < 20; round++ {
			batched.IntnUint64s(n, idx, u)
			for i := range idx {
				if want := calls.Intn(n); idx[i] != want {
					t.Fatalf("n=%d round %d draw %d: index %d, Intn %d", n, round, i, idx[i], want)
				}
				if got, want := float64(u[i]>>11)/(1<<53), calls.Float64(); got != want {
					t.Fatalf("n=%d round %d draw %d: uniform %v, Float64 %v", n, round, i, got, want)
				}
			}
			if batched.State() != calls.State() {
				t.Fatalf("n=%d round %d: generators diverged", n, round)
			}
		}
	}
	// The rejection case really rejected: the batch consumed more than two
	// raw draws a pair.
	r, raw := NewRNG(9), NewRNG(9)
	r.IntnUint64s(3<<61, make([]int, 100), make([]uint64, 100))
	for i := 0; i < 200; i++ {
		raw.Uint64()
	}
	if r.State() == raw.State() {
		t.Fatal("100 draws at n = 3·2⁶¹ rejected nothing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("IntnUint64s(0) did not panic")
		}
	}()
	r.IntnUint64s(0, make([]int, 1), make([]uint64, 1))
}
