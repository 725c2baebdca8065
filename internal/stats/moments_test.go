package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestWelfordBasic(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d, want 8", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	if !almostEqual(w.Var(), 4, 1e-12) {
		t.Fatalf("Var = %v, want 4", w.Var())
	}
	if !almostEqual(w.Std(), 2, 1e-12) {
		t.Fatalf("Std = %v, want 2", w.Std())
	}
	if w.Max() != 9 {
		t.Fatalf("Max = %v, want 9", w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.N() != 0 {
		t.Fatal("zero Welford should report zeros")
	}
}

func TestWelfordMerge(t *testing.T) {
	rng := NewRNG(37)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64Range(-50, 50)
	}
	var whole, left, right Welford
	for i, x := range xs {
		whole.Add(x)
		if i < 400 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(&right)
	if left.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", left.N(), whole.N())
	}
	if !almostEqual(left.Mean(), whole.Mean(), 1e-9) {
		t.Fatalf("merged Mean = %v, want %v", left.Mean(), whole.Mean())
	}
	if !almostEqual(left.Var(), whole.Var(), 1e-9) {
		t.Fatalf("merged Var = %v, want %v", left.Var(), whole.Var())
	}
	if left.Max() != whole.Max() {
		t.Fatal("merged max mismatch")
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var a, b Welford
	a.Merge(&b) // empty into empty
	if a.N() != 0 {
		t.Fatal("empty merge changed state")
	}
	b.Add(3)
	a.Merge(&b) // non-empty into empty
	if a.N() != 1 || a.Mean() != 3 {
		t.Fatalf("merge into empty: n=%d mean=%v", a.N(), a.Mean())
	}
	var c Welford
	a.Merge(&c) // empty into non-empty
	if a.N() != 1 {
		t.Fatal("merging empty changed count")
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.init {
		t.Fatal("fresh EWMA claims initialized")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first value should seed: %v", e.Value())
	}
	e.Add(20)
	if !almostEqual(e.Value(), 15, 1e-12) {
		t.Fatalf("EWMA = %v, want 15", e.Value())
	}
	e.Add(20)
	if !almostEqual(e.Value(), 17.5, 1e-12) {
		t.Fatalf("EWMA = %v, want 17.5", e.Value())
	}
}

func TestEWMAConvergence(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 200; i++ {
		e.Add(42)
	}
	if !almostEqual(e.Value(), 42, 1e-9) {
		t.Fatalf("EWMA did not converge to constant input: %v", e.Value())
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewEWMA(%v) did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}
