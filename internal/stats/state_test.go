package stats

import (
	"math"
	"testing"
)

// drainMixed draws a deterministic mix of variates, returning a digest-ish
// slice so callers can compare two generators draw by draw.
func drainMixed(r *RNG, n int) []float64 {
	out := make([]float64, 0, 4*n)
	for i := 0; i < n; i++ {
		out = append(out,
			float64(r.Uint64()),
			r.Float64(),
			r.NormFloat64(), // exercises the cached spare
			float64(r.Intn(1000)),
		)
	}
	return out
}

func TestRNGStateContinuation(t *testing.T) {
	a := NewRNG(42)
	drainMixed(a, 137) // leave the generator mid-sequence, spare possibly cached
	st := a.State()

	b := NewRNG(7) // deliberately different seed; Restore must fully overwrite
	b.Restore(st)

	got := drainMixed(b, 500)
	want := drainMixed(a, 500)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d diverged: restored=%v original=%v", i, got[i], want[i])
		}
	}
}

func TestRNGStateCapturesSpare(t *testing.T) {
	a := NewRNG(1)
	a.NormFloat64() // polar method caches one spare variate
	st := a.State()
	if !st.HaveSpare {
		t.Fatalf("expected cached spare after one NormFloat64 draw")
	}
	b := NewRNG(2)
	b.Restore(st)
	if g, w := b.NormFloat64(), a.NormFloat64(); g != w {
		t.Fatalf("spare variate not restored: got %v want %v", g, w)
	}
}

func TestWelfordStateContinuation(t *testing.T) {
	rng := NewRNG(3)
	var a Welford
	for i := 0; i < 321; i++ {
		a.Add(rng.NormFloat64() * 10)
	}
	st := a.State()

	var b Welford
	b.Restore(st)
	for i := 0; i < 200; i++ {
		v := rng.Float64Range(-5, 5)
		a.Add(v)
		b.Add(v)
	}
	if a != b {
		t.Fatalf("welford diverged after restore: %+v vs %+v", a, b)
	}
	if a.N() != 521 || a.Mean() >= a.Max() {
		t.Fatalf("implausible tracker state: %+v", a)
	}
}

func TestEWMAStateContinuation(t *testing.T) {
	a := NewEWMA(0.3)
	st0 := a.State()
	if st0.Init {
		t.Fatalf("fresh EWMA must export uninitialized state")
	}
	a.Add(5)
	a.Add(7)
	st := a.State()

	b := NewEWMA(0.3)
	b.Restore(st)
	for _, v := range []float64{1, 2, 3, 9, -4} {
		a.Add(v)
		b.Add(v)
	}
	if a.Value() != b.Value() || a.init != b.init {
		t.Fatalf("ewma diverged: %v vs %v", a.Value(), b.Value())
	}
}

func TestReservoirStateContinuation(t *testing.T) {
	rngA := NewRNG(11)
	a := NewReservoir(32, rngA)
	for i := 0; i < 500; i++ {
		a.Add(rngA.Float64())
	}
	resSt := a.State()
	rngSt := rngA.State()

	rngB := NewRNG(99)
	rngB.Restore(rngSt) // reservoir replacement draws must line up too
	b := NewReservoir(32, rngB)
	b.Restore(resSt)

	for i := 0; i < 500; i++ {
		v := float64(i) * 0.25
		a.Add(v)
		b.Add(v)
	}
	if a.n != b.n || a.Len() != b.Len() {
		t.Fatalf("reservoir counters diverged: n=%d/%d len=%d/%d", a.n, b.n, a.Len(), b.Len())
	}
	for i, v := range a.Sample() {
		if b.Sample()[i] != v {
			t.Fatalf("sample slot %d diverged: %v vs %v", i, b.Sample()[i], v)
		}
	}
}

func TestReservoirRestoreRejectsOversizedState(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic restoring oversized reservoir state")
		}
	}()
	r := NewReservoir(2, NewRNG(1))
	r.Restore(ReservoirState{N: 5, Data: []float64{1, 2, 3}})
}

func TestStateRoundTripIsValueIdentical(t *testing.T) {
	// NaN-free guarantee for snapshot JSON: states built from finite inputs
	// must contain only finite numbers.
	rng := NewRNG(5)
	var w Welford
	var h LogHist
	for i := 0; i < 100; i++ {
		v := rng.NormFloat64()
		w.Add(v)
		h.Add(v)
	}
	ws := w.State()
	for _, v := range []float64{ws.Mean, ws.M2, ws.Max, h.State().Max} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite state: %+v, %+v", ws, h.State())
		}
	}
}
