package delay

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// sampleMean draws n delays at event time at and returns their mean.
func sampleMean(t *testing.T, m Model, at int64, n int, seed uint64) float64 {
	t.Helper()
	rng := stats.NewRNG(seed)
	var w stats.Welford
	for i := 0; i < n; i++ {
		d := m.Delay(at, rng)
		if d < 0 {
			t.Fatalf("%v produced negative delay %v", m, d)
		}
		w.Add(d)
	}
	return w.Mean()
}

func TestZeroAndConstant(t *testing.T) {
	rng := stats.NewRNG(1)
	if d := (Zero{}).Delay(0, rng); d != 0 {
		t.Fatalf("Zero delay = %v", d)
	}
	c := Constant{D: 42}
	if d := c.Delay(123, rng); d != 42 {
		t.Fatalf("Constant delay = %v", d)
	}
	if c.Mean() != 42 {
		t.Fatalf("Constant mean = %v", c.Mean())
	}
}

func TestUniformMoments(t *testing.T) {
	u := Uniform{Lo: 10, Hi: 30}
	m := sampleMean(t, u, 0, 100000, 2)
	if math.Abs(m-u.Mean()) > 0.5 {
		t.Fatalf("uniform sample mean %v, want ~%v", m, u.Mean())
	}
	rng := stats.NewRNG(3)
	for i := 0; i < 1000; i++ {
		d := u.Delay(0, rng)
		if d < 10 || d >= 30 {
			t.Fatalf("uniform delay %v outside [10,30)", d)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	e := Exponential{MeanD: 25}
	m := sampleMean(t, e, 0, 200000, 5)
	if math.Abs(m-25) > 0.5 {
		t.Fatalf("exponential sample mean %v, want ~25", m)
	}
}

func TestNormalTruncation(t *testing.T) {
	n := Normal{Mu: 5, Sigma: 10}
	rng := stats.NewRNG(7)
	for i := 0; i < 10000; i++ {
		if d := n.Delay(0, rng); d < 0 {
			t.Fatalf("truncated normal returned negative %v", d)
		}
	}
	// With Mu >> Sigma the sample mean should match Mu closely.
	tight := Normal{Mu: 100, Sigma: 10}
	m := sampleMean(t, tight, 0, 100000, 8)
	if math.Abs(m-100) > 0.5 {
		t.Fatalf("normal sample mean %v, want ~100", m)
	}
}

func TestParetoMeanAndTail(t *testing.T) {
	p := Pareto{Xm: 10, Alpha: 2}
	if want := 20.0; math.Abs(p.Mean()-want) > 1e-12 {
		t.Fatalf("Pareto mean = %v, want %v", p.Mean(), want)
	}
	m := sampleMean(t, p, 0, 500000, 9)
	// Heavy tail -> slow convergence; allow 10%.
	if math.Abs(m-20) > 2 {
		t.Fatalf("Pareto sample mean %v, want ~20", m)
	}
	rng := stats.NewRNG(10)
	for i := 0; i < 1000; i++ {
		if d := p.Delay(0, rng); d < p.Xm {
			t.Fatalf("Pareto delay %v below scale %v", d, p.Xm)
		}
	}
	if !math.IsInf(Pareto{Xm: 1, Alpha: 1}.Mean(), 1) {
		t.Fatal("alpha<=1 Pareto mean should be +Inf")
	}
}

func TestParetoWithMean(t *testing.T) {
	p := ParetoWithMean(50, 2.5)
	if math.Abs(p.Mean()-50) > 1e-9 {
		t.Fatalf("matched mean = %v, want 50", p.Mean())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ParetoWithMean(alpha<=1) did not panic")
		}
	}()
	ParetoWithMean(50, 1)
}

func TestGammaMean(t *testing.T) {
	for _, g := range []Gamma{{K: 2, Theta: 10}, {K: 0.5, Theta: 40}, {K: 9, Theta: 3}} {
		m := sampleMean(t, g, 0, 200000, 11)
		if math.Abs(m-g.Mean()) > 0.03*g.Mean()+0.5 {
			t.Errorf("%v sample mean %v, want ~%v", g, m, g.Mean())
		}
	}
}

func TestMixture(t *testing.T) {
	m := NewMixture(
		[]float64{0.9, 0.1},
		[]Model{Constant{D: 10}, Constant{D: 110}},
	)
	if want := 20.0; math.Abs(m.Mean()-want) > 1e-9 {
		t.Fatalf("mixture mean = %v, want %v", m.Mean(), want)
	}
	got := sampleMean(t, m, 0, 100000, 13)
	if math.Abs(got-20) > 1 {
		t.Fatalf("mixture sample mean %v, want ~20", got)
	}
}

func TestMixturePanics(t *testing.T) {
	cases := []func(){
		func() { NewMixture(nil, nil) },
		func() { NewMixture([]float64{1}, []Model{Zero{}, Zero{}}) },
		func() { NewMixture([]float64{-1, 2}, []Model{Zero{}, Zero{}}) },
		func() { NewMixture([]float64{0, 0}, []Model{Zero{}, Zero{}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestStepSwitchesAtBoundary(t *testing.T) {
	s := Step{Before: Constant{D: 1}, After: Constant{D: 100}, At: 500}
	rng := stats.NewRNG(17)
	if d := s.Delay(499, rng); d != 1 {
		t.Fatalf("before step: %v", d)
	}
	if d := s.Delay(500, rng); d != 100 {
		t.Fatalf("at step: %v", d)
	}
	if s.Mean() != 1 {
		t.Fatalf("step mean (time 0) = %v", s.Mean())
	}
}

func TestRampInterpolates(t *testing.T) {
	r := Ramp{Base: Constant{D: 10}, Factor: 3, Start: 0, End: 100}
	rng := stats.NewRNG(19)
	if d := r.Delay(0, rng); d != 10 {
		t.Fatalf("ramp at start: %v, want 10", d)
	}
	if d := r.Delay(50, rng); math.Abs(d-20) > 1e-9 {
		t.Fatalf("ramp midway: %v, want 20", d)
	}
	if d := r.Delay(100, rng); d != 30 {
		t.Fatalf("ramp at end: %v, want 30", d)
	}
	if d := r.Delay(1000, rng); d != 30 {
		t.Fatalf("ramp after end: %v, want 30", d)
	}
}

func TestBurstPeriodicity(t *testing.T) {
	b := Burst{Base: Constant{D: 10}, Factor: 5, Period: 100, BurstLen: 20}
	rng := stats.NewRNG(23)
	if d := b.Delay(10, rng); d != 50 {
		t.Fatalf("in burst: %v, want 50", d)
	}
	if d := b.Delay(50, rng); d != 10 {
		t.Fatalf("out of burst: %v, want 10", d)
	}
	if d := b.Delay(110, rng); d != 50 {
		t.Fatalf("second period burst: %v, want 50", d)
	}
	// Time-averaged mean: 0.2*50 + 0.8*10 = 18.
	if m := b.Mean(); math.Abs(m-18) > 1e-9 {
		t.Fatalf("burst mean = %v, want 18", m)
	}
}

func TestBurstZeroPeriod(t *testing.T) {
	b := Burst{Base: Constant{D: 7}, Factor: 5, Period: 0, BurstLen: 0}
	rng := stats.NewRNG(29)
	if d := b.Delay(123, rng); d != 7 {
		t.Fatalf("zero-period burst should pass through: %v", d)
	}
	if b.Mean() != 7 {
		t.Fatalf("zero-period burst mean: %v", b.Mean())
	}
}

func TestScaled(t *testing.T) {
	s := Scaled{Base: Constant{D: 4}, Factor: 2.5}
	rng := stats.NewRNG(31)
	if d := s.Delay(0, rng); d != 10 {
		t.Fatalf("scaled delay = %v, want 10", d)
	}
	if s.Mean() != 10 {
		t.Fatalf("scaled mean = %v, want 10", s.Mean())
	}
}

func TestAllModelsNonNegative(t *testing.T) {
	models := []Model{
		Zero{}, Constant{D: 3}, Uniform{Lo: 0, Hi: 5}, Exponential{MeanD: 10},
		Normal{Mu: 2, Sigma: 5}, Pareto{Xm: 1, Alpha: 1.5}, Gamma{K: 0.7, Theta: 8},
		NewMixture([]float64{1, 1}, []Model{Exponential{MeanD: 1}, Pareto{Xm: 1, Alpha: 2}}),
		Step{Before: Exponential{MeanD: 1}, After: Exponential{MeanD: 10}, At: 50},
		Ramp{Base: Exponential{MeanD: 1}, Factor: 4, Start: 0, End: 100},
		Burst{Base: Exponential{MeanD: 1}, Factor: 10, Period: 50, BurstLen: 10},
		Scaled{Base: Exponential{MeanD: 1}, Factor: 3},
	}
	rng := stats.NewRNG(37)
	f := func(atRaw uint16) bool {
		at := int64(atRaw)
		for _, m := range models {
			if m.Delay(at, rng) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestModelStringsNonEmpty(t *testing.T) {
	models := []Model{
		Zero{}, Constant{D: 3}, Uniform{Lo: 0, Hi: 5}, Exponential{MeanD: 10},
		Normal{Mu: 2, Sigma: 5}, Pareto{Xm: 1, Alpha: 1.5}, Gamma{K: 0.7, Theta: 8},
		NewMixture([]float64{1}, []Model{Zero{}}),
		Step{Before: Zero{}, After: Zero{}, At: 1},
		Ramp{Base: Zero{}, Factor: 2, Start: 0, End: 1},
		Burst{Base: Zero{}, Factor: 2, Period: 10, BurstLen: 1},
		Scaled{Base: Zero{}, Factor: 2},
	}
	for _, m := range models {
		if m.String() == "" {
			t.Errorf("%T has empty String()", m)
		}
	}
}
