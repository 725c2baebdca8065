package core

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/window"
)

func uniformEstimator(t *testing.T, spec window.Spec, agg window.Factory, maxLate float64, n int) *Estimator {
	t.Helper()
	e := NewEstimator(spec, agg, EstimatorConfig{Seed: 1, MCTrials: 64})
	rng := stats.NewRNG(2)
	for i := 0; i < n; i++ {
		e.ObserveTuple(rng.Float64Range(0, maxLate), rng.Float64Range(10, 20))
	}
	e.ObserveWindowCount(100)
	return e
}

// pLate is the estimated probability that a tuple's lateness exceeds k —
// that a K-slack buffer with slack k would forward it as a straggler.
func pLate(e *Estimator, k int64) float64 {
	return e.lateness.FracsAbove(float64(k), []float64{0}, nil)[0]
}

func TestPLateMatchesDistribution(t *testing.T) {
	e := uniformEstimator(t, window.Spec{Size: 10, Slide: 10}, window.Sum(), 100, 20000)
	for _, c := range []struct {
		k    int64
		want float64
	}{
		{0, 1}, {50, 0.5}, {90, 0.1}, {100, 0}, {1000, 0},
	} {
		if got := pLate(e, c.k); math.Abs(got-c.want) > 0.03 {
			t.Errorf("PLate(%d) = %v, want ~%v", c.k, got, c.want)
		}
	}
}

func TestPLossTighterThanPLate(t *testing.T) {
	// With a large window, most tuples have extra headroom, so PLoss must
	// be well below PLate.
	e := uniformEstimator(t, window.Spec{Size: 200, Slide: 50}, window.Sum(), 100, 20000)
	k := int64(20)
	pLate, pLoss := pLate(e, k), e.PLoss(k)
	if pLoss >= pLate {
		t.Fatalf("PLoss(%d)=%v not tighter than PLate=%v", k, pLoss, pLate)
	}
	if pLoss <= 0 {
		t.Fatalf("PLoss = %v, want positive at small k", pLoss)
	}
}

func TestPLossMonotoneInK(t *testing.T) {
	e := uniformEstimator(t, window.Spec{Size: 50, Slide: 10}, window.Sum(), 200, 20000)
	prev := 2.0
	for k := int64(0); k <= 250; k += 10 {
		p := e.PLoss(k)
		if p > prev+1e-9 {
			t.Fatalf("PLoss not non-increasing at k=%d: %v -> %v", k, prev, p)
		}
		prev = p
	}
}

func TestEstimateErrZeroLoss(t *testing.T) {
	e := uniformEstimator(t, window.Spec{Size: 10, Slide: 10}, window.Sum(), 100, 5000)
	if got := e.EstimateErr(1 << 30); got != 0 {
		t.Fatalf("EstimateErr at huge K = %v, want 0", got)
	}
}

func TestEstimateErrCountTracksLoss(t *testing.T) {
	// For count, the relative error equals the loss fraction in
	// expectation.
	e := NewEstimator(window.Spec{Size: 10, Slide: 10}, window.Count(), EstimatorConfig{Seed: 3, MCTrials: 64})
	rng := stats.NewRNG(4)
	for i := 0; i < 20000; i++ {
		e.ObserveTuple(rng.Float64Range(0, 100), 1)
	}
	e.ObserveWindowCount(400)
	curve := e.LossCurve()
	for _, p := range []float64{0.05, 0.2, 0.5} {
		got := curve.Err(p)
		if math.Abs(got-p) > 0.35*p+0.01 {
			t.Errorf("curve.Err(%v) for count = %v, want ~%v", p, got, p)
		}
	}
}

func TestEstimateErrAvgSmallerThanSumError(t *testing.T) {
	// Dropping a random subset biases a sum proportionally but leaves an
	// average nearly unbiased: the avg model must predict far less error
	// for tightly concentrated values.
	mk := func(agg window.Factory) *Estimator {
		e := NewEstimator(window.Spec{Size: 10, Slide: 10}, agg, EstimatorConfig{Seed: 5, MCTrials: 64})
		rng := stats.NewRNG(6)
		for i := 0; i < 10000; i++ {
			e.ObserveTuple(rng.Float64Range(0, 100), rng.Float64Range(99, 101))
		}
		e.ObserveWindowCount(200)
		return e
	}
	p := 0.2
	sumErr := mk(window.Sum()).LossCurve().Err(p)
	avgErr := mk(window.Avg()).LossCurve().Err(p)
	if avgErr >= sumErr/3 {
		t.Fatalf("avg error %v not much smaller than sum error %v", avgErr, sumErr)
	}
}

func TestMaxTolerableLossInvertsModel(t *testing.T) {
	e := uniformEstimator(t, window.Spec{Size: 10, Slide: 10}, window.Count(), 100, 20000)
	for _, theta := range []float64{0.01, 0.05, 0.2} {
		p := e.MaxTolerableLoss(theta)
		// The Monte-Carlo estimate is noisy (and quantized at 1/n for
		// count), so re-evaluation may wobble: allow 2x + quantization.
		if err := e.LossCurve().Err(p); err > 2*theta+0.01 {
			t.Errorf("theta=%v: loss %v gives error %v above target", theta, p, err)
		}
	}
	if e.MaxTolerableLoss(0) != 0 {
		t.Error("MaxTolerableLoss(0) != 0")
	}
}

func TestMinKMonotoneInTheta(t *testing.T) {
	e := uniformEstimator(t, window.Spec{Size: 10, Slide: 10}, window.Count(), 100, 20000)
	k1 := e.MinK(0.01, 1<<20)
	k5 := e.MinK(0.05, 1<<20)
	k20 := e.MinK(0.20, 1<<20)
	if !(k1 >= k5 && k5 >= k20) {
		t.Fatalf("MinK not monotone: theta 1%%->%d, 5%%->%d, 20%%->%d", k1, k5, k20)
	}
	if k1 > 110 {
		t.Fatalf("MinK(1%%) = %d beyond the lateness support (~100)", k1)
	}
}

func TestMinKForLossBounds(t *testing.T) {
	e := uniformEstimator(t, window.Spec{Size: 10, Slide: 10}, window.Count(), 100, 20000)
	if k := e.MinKForLoss(1, 1<<20); k != 0 {
		t.Fatalf("tolerating all loss should give K=0, got %d", k)
	}
	k := e.MinKForLoss(0.1, 1<<20)
	if e.PLoss(k) > 0.1+0.02 {
		t.Fatalf("MinKForLoss(0.1) = %d has PLoss %v", k, e.PLoss(k))
	}
	if k > 0 && e.PLoss(k-1) <= 0.1-0.02 {
		t.Fatalf("MinKForLoss(0.1) = %d not minimal (PLoss(k-1)=%v)", k, e.PLoss(k-1))
	}
	if got := e.MinKForLoss(0.5, 0); got != 0 {
		t.Fatalf("kMax=0 should clamp to 0, got %d", got)
	}
}

func TestEstimateErrNoValuesFallsBackToLoss(t *testing.T) {
	e := NewEstimator(window.Spec{Size: 10, Slide: 10}, window.Sum(), EstimatorConfig{Seed: 9})
	// Observe nothing: estimate must fall back to the loss probability.
	curve := e.LossCurve()
	for _, p := range []float64{1e-6, 1e-3, 0.3, 1} {
		if got := curve.Err(p); math.Abs(got-p) > 1e-12 {
			t.Errorf("fallback estimate at p=%v is %v", p, got)
		}
		if got := curve.MaxLoss(p); math.Abs(got-p) > 1e-12 {
			t.Errorf("fallback MaxLoss(%v) = %v", p, got)
		}
	}
}

func TestWindowCountFallbacks(t *testing.T) {
	e := NewEstimator(window.Spec{Size: 10, Slide: 10}, window.Sum(), EstimatorConfig{Seed: 10})
	if n := e.WindowCount(); n != 1 {
		t.Fatalf("empty estimator WindowCount = %d, want 1", n)
	}
	e.ObserveWindowCount(250)
	if n := e.WindowCount(); n != 250 {
		t.Fatalf("WindowCount = %d, want 250", n)
	}
	e.ObserveWindowCount(0) // ignored
	if n := e.WindowCount(); n != 250 {
		t.Fatalf("zero count polluted estimate: %d", n)
	}
}

func TestObserveTupleClampsNegativeLateness(t *testing.T) {
	e := NewEstimator(window.Spec{Size: 10, Slide: 10}, window.Sum(), EstimatorConfig{Seed: 11})
	e.ObserveTuple(-50, 1)
	if got := pLate(e, 0); got != 0 {
		t.Fatalf("negative lateness recorded: PLate(0) = %v", got)
	}
}

// bruteForceErr is the probe-by-probe simulation the loss curve replaced:
// per trial an independent synthetic window, thinned at the one probability
// p. It returns the mean and variance of the per-trial relative error.
func bruteForceErr(e *Estimator, rng *stats.RNG, p float64, trials int) (mean, variance float64) {
	sample := e.values.Sample()
	n := min(e.WindowCount(), 1024)
	var w stats.Welford
	for t := 0; t < trials; t++ {
		full, thin := e.agg.New(), e.agg.New()
		for i := 0; i < n; i++ {
			v := sample[rng.Intn(len(sample))]
			full.Add(v)
			if rng.Float64() >= p {
				thin.Add(v)
			}
		}
		w.Add(relErrEst(thin.Value(), full.Value()))
	}
	return w.Mean(), sampleVar(&w)
}

// sampleVar is w's unbiased sample variance.
func sampleVar(w *stats.Welford) float64 {
	if w.N() < 2 {
		return 0
	}
	return w.Var() * float64(w.N()) / float64(w.N()-1)
}

// skewedEstimator holds a fixed reservoir of positive, heavy-tailed values
// (so max and median have something to lose) and 300-tuple windows.
func skewedEstimator(agg window.Factory, trials int) *Estimator {
	e := NewEstimator(window.Spec{Size: 10, Slide: 10}, agg,
		EstimatorConfig{Seed: 21, MCTrials: trials, ReservoirSize: 512})
	rng := stats.NewRNG(22)
	for i := 0; i < 512; i++ {
		e.ObserveTuple(0, math.Exp(rng.NormFloat64()))
	}
	e.ObserveWindowCount(300)
	return e
}

// TestLossCurveMatchesBruteForce: one nested-thinning sweep estimates the
// same expectation, at every probability, as an independent simulation per
// probability.
func TestLossCurveMatchesBruteForce(t *testing.T) {
	const curves, trials = 40, 40
	probes := []float64{1e-4, 1e-3, 0.008, 0.05, 0.3, 0.9}
	for _, agg := range []window.Factory{window.Sum(), window.Count(), window.Avg(), window.Max(), window.Median()} {
		e := skewedEstimator(agg, trials)
		got := make([]stats.Welford, len(probes)) // over independent curves
		for c := 0; c < curves; c++ {
			curve := e.LossCurve()
			for i, p := range probes {
				got[i].Add(curve.Err(p))
			}
		}
		rng := stats.NewRNG(23)
		for i, p := range probes {
			want, variance := bruteForceErr(e, rng, p, curves*trials)
			// Five standard errors of the difference, plus 2% for
			// interpolating between grid probes.
			se := math.Sqrt(sampleVar(&got[i])/curves + variance/(curves*trials))
			if tol := 5*se + 0.02*want; math.Abs(got[i].Mean()-want) > tol {
				t.Errorf("%s p=%v: curve %.6g, brute force %.6g (tolerance %.2g)",
					agg.Name, p, got[i].Mean(), want, tol)
			}
		}
	}
}

// TestLossCurveMonotoneAndInvertible: over positive values the survivor
// sets are nested, so sum and count errors never fall as p rises, and
// MaxLoss lands where the curve crosses the target.
func TestLossCurveMonotoneAndInvertible(t *testing.T) {
	for _, agg := range []window.Factory{window.Sum(), window.Count()} {
		curve := skewedEstimator(agg, 16).LossCurve()
		prev := 0.0
		for p := 1e-5; p <= 1; p *= 1.07 {
			err := curve.Err(p)
			if err < prev {
				t.Fatalf("%s: error falls from %v to %v at p=%v", agg.Name, prev, err, p)
			}
			prev = err
		}
		for _, target := range []float64{0.002, 0.008, 0.05, 0.3} {
			r := curve.MaxLoss(target)
			if at, past := curve.Err(r), curve.Err(r*1.2); at > target*(1+1e-9) || past <= target {
				t.Errorf("%s: MaxLoss(%v) = %v with Err %v there and %v at 1.2x", agg.Name, target, r, at, past)
			}
		}
	}
}

func TestLossCurveEdgeCases(t *testing.T) {
	// A curve with a known inverse: Err(p) = 2p.
	steep := LossCurve{errs: make([]float64, curvePoints)}
	// And one that never reaches 0.6: Err(p) = p/2.
	flat := LossCurve{errs: make([]float64, curvePoints)}
	for j, p := range lossGrid {
		steep.errs[j], flat.errs[j] = 2*p, p/2
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*want }
	// Below the first positive probe the curve runs straight to the origin.
	if below := lossGrid[1] / 100; !near(steep.MaxLoss(2*below), below) || !near(steep.Err(below), 2*below) {
		t.Errorf("below the first probe: MaxLoss(%v) = %v, Err(%v) = %v",
			2*below, steep.MaxLoss(2*below), below, steep.Err(below))
	}
	if got := steep.MaxLoss(0.1); !near(got, 0.05) {
		t.Errorf("MaxLoss(0.1) on Err=2p is %v", got)
	}
	if got := flat.MaxLoss(0.6); got != 1 {
		t.Errorf("Err(1) = 0.5 is within target 0.6, yet MaxLoss = %v", got)
	}
	for _, target := range []float64{0, -1} {
		if got := steep.MaxLoss(target); got != 0 {
			t.Errorf("MaxLoss(%v) = %v, want 0", target, got)
		}
	}
	if steep.Err(0) != 0 || steep.Err(-0.5) != 0 || steep.Err(1) != 2 || steep.Err(1.5) != 2 {
		t.Errorf("Err outside (0,1): %v %v %v %v", steep.Err(0), steep.Err(-0.5), steep.Err(1), steep.Err(1.5))
	}
}

// TestGridCell pins the table-driven bucketing to the grid it stands for.
func TestGridCell(t *testing.T) {
	if lossGrid[0] != 0 || lossGrid[1] != 1.0/(1<<14) || lossGrid[curvePoints-1] != 1 {
		t.Fatalf("grid is %v, %v ... %v", lossGrid[0], lossGrid[1], lossGrid[curvePoints-1])
	}
	for j := 2; j < curvePoints-1; j++ {
		lo, hi := lossGrid[j-1], lossGrid[j]
		if lo > 0.5 {
			lo, hi = 1-hi, 1-lo // geometric in 1−p above one half
		}
		if r := hi / lo; r <= 1 || r > 1.25 {
			t.Fatalf("grid step %d (%v to %v) has ratio %v", j, lossGrid[j-1], lossGrid[j], r)
		}
	}
	count := func(p float64) int {
		n := 0
		for _, g := range lossGrid {
			if g <= p {
				n++
			}
		}
		return n
	}
	rng := stats.NewRNG(24)
	probes := []float64{0, 1e-9, math.Nextafter(1, 0)}
	for _, g := range lossGrid {
		probes = append(probes, g, math.Nextafter(g, 0), math.Nextafter(g, 2))
	}
	for i := 0; i < 10000; i++ {
		probes = append(probes, rng.Float64(), rng.Float64()*1e-3)
	}
	for _, p := range probes {
		if got, want := gridCell(p), count(p); got != want {
			t.Fatalf("gridCell(%v) = %d, want %d", p, got, want)
		}
	}
}
