// Package core implements the paper's contribution: quality-driven,
// adaptive disorder handling for continuous queries over out-of-order
// streams.
//
// Instead of a hand-tuned slack, the user states a bound θ on result
// quality. One handler, AQKSlack, keeps the slack K of an internal K-slack
// buffer at (approximately) the smallest value that still meets the bound,
// with one of two quality models: the relative error of window aggregates
// (NewAQKSlack) or the pair recall of band joins (NewAQJoin, θ = 1 − recall):
//
//  1. a lateness sketch (Greenwald–Khanna quantile summary over observed
//     tuple lateness) yields P(lateness > K + offset) for any candidate K;
//  2. the model maps that to the error: for aggregates, the induced tuple
//     loss to an expected relative window error by a loss curve, built
//     every few adaptations by one Monte-Carlo sweep over synthetic windows
//     drawn from a reservoir sample of recent tuple values — every loss
//     probability of a fixed grid from the same random numbers — and read
//     by interpolation in between; for joins, the per-tuple miss over the
//     partners' headroom to the pair miss rate 1 − (1 − p)^m;
//  3. a proportional–integral (PI) controller trims the model's choice
//     using the realized error, measured a posteriori and reported by the
//     query's own operator: stragglers eventually arrive, so the true value
//     of each emitted window becomes known after a feedback horizon, and a
//     join counts the pairs its expired state missed.
//
// The baselines this is evaluated against live in internal/buffer.
package core

import (
	"math"

	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// Estimator predicts the relative window-aggregate error that a given
// slack K would cause, from the observed lateness distribution and a
// sample of recent tuple values.
type Estimator struct {
	agg      window.Factory
	lateness *stats.GK
	values   *stats.Reservoir
	winCount *stats.EWMA // tuples per window
	rng      *stats.RNG
	trials   int
	observed int64

	gaps  []float64    // PLoss's headroom per window position, ascending
	fracs []float64    // PLoss's scratch: the sketch read at k + gaps
	sweep []sweepTrial // LossCurve's scratch, one per trial; not state
}

// EstimatorConfig parameterizes NewEstimator. Zero values select defaults.
type EstimatorConfig struct {
	SketchEps     float64 // GK rank error; default 0.005
	ReservoirSize int     // value sample size; default 512
	MCTrials      int     // Monte-Carlo trials per estimate; default 16
	CountAlpha    float64 // EWMA factor for window tuple count; default 0.2
	Seed          uint64
}

func (c EstimatorConfig) withDefaults() EstimatorConfig {
	if c.SketchEps == 0 {
		c.SketchEps = 0.005
	}
	if c.ReservoirSize == 0 {
		// Large enough that values appearing at ~0.1% frequency (rare
		// spikes that dominate max/stddev) are present in the sample.
		c.ReservoirSize = 4096
	}
	if c.MCTrials == 0 {
		c.MCTrials = 16
	}
	if c.CountAlpha == 0 {
		c.CountAlpha = 0.2
	}
	return c
}

// NewEstimator returns an estimator for the given window spec and
// aggregate.
func NewEstimator(spec window.Spec, agg window.Factory, cfg EstimatorConfig) *Estimator {
	cfg = cfg.withDefaults()
	// With windows every Slide, the gap between a uniformly placed tuple and
	// the end of a window it falls in takes the values (j+½)·Slide for
	// j = 0..Size/Slide−1 (see PLoss).
	e := newLatenessEstimator(max(int(spec.Size/spec.Slide), 1), float64(spec.Slide), cfg.SketchEps)
	e.rng = stats.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15)
	e.agg, e.trials = agg, cfg.MCTrials
	e.values = stats.NewReservoir(cfg.ReservoirSize, e.rng)
	e.winCount = stats.NewEWMA(cfg.CountAlpha)
	return e
}

// newLatenessEstimator returns an estimator of the lateness sketch alone,
// whose PLoss averages over the n offsets (j+½)·step: the recall model's. With
// no value sample it answers PLoss only.
func newLatenessEstimator(n int, step, sketchEps float64) *Estimator {
	e := &Estimator{lateness: stats.NewGK(sketchEps), gaps: make([]float64, n), fracs: make([]float64, n)}
	for j := range e.gaps {
		e.gaps[j] = (float64(j) + 0.5) * step
	}
	return e
}

// ObserveTuple records one tuple's lateness (>= 0, in stream-time units)
// and value.
func (e *Estimator) ObserveTuple(lateness float64, value float64) {
	if lateness < 0 {
		lateness = 0
	}
	e.lateness.Add(lateness)
	if e.values != nil {
		e.values.Add(value)
	}
	e.observed++
}

// ObserveWindowCount records the (eventually complete) tuple count of a
// finished window, feeding the per-window size estimate.
func (e *Estimator) ObserveWindowCount(n int64) {
	if n > 0 {
		e.winCount.Add(float64(n))
	}
}

// Observations returns how many tuples the estimator has seen.
func (e *Estimator) Observations() int64 { return e.observed }

// PLoss returns the estimated probability that a (tuple, window)
// contribution is lost at slack k. It is strictly tighter than the
// probability that the tuple's lateness exceeds k: a tuple with event time
// ts contributing to window [s, s+Size) is lost only if it is later than k
// plus the gap between ts and the window's end — tuples early in a window
// have the whole remaining window length as additional headroom. With windows every Slide, the gap of a uniformly
// placed tuple takes the values (j+½)·Slide for j = 0..Size/Slide−1, so we
// average P(L > k + gap) over them. The recall model's estimator averages
// over a join's partner headroom instead (newLatenessEstimator).
func (e *Estimator) PLoss(k stream.Time) float64 {
	var sum float64
	for _, f := range e.lateness.FracsAbove(float64(k), e.gaps, e.fracs) {
		sum += f
	}
	return sum / float64(len(e.gaps))
}

// WindowCount returns the estimated tuples per window (at least 1).
func (e *Estimator) WindowCount() int {
	n := int(math.Round(e.winCount.Value()))
	if n < 1 {
		// Fall back to rate-based estimate: window size over a guessed
		// inter-arrival of 1 would overshoot; just use the sample size.
		n = e.values.Len()
	}
	if n < 1 {
		n = 1
	}
	return n
}

// EstimateErr predicts the expected relative window error at slack k: the
// loss curve read at PLoss(k).
func (e *Estimator) EstimateErr(k stream.Time) float64 {
	return e.LossCurve().Err(e.PLoss(k))
}

// The loss curve is probed on a fixed grid of loss probabilities that is
// geometric towards both ends: 0, then four points per octave of p from
// 2^-14 up to 1/2, then four per octave of 1−p up to 1−2^-7, then 1.
// Consecutive probes are at most a factor 1.25 apart in p (below 1/2) or
// in 1−p (above), which resolves both the small losses a tight θ tolerates
// and the steep rise just before a mean or order statistic loses its whole
// window. Every probe is a multiple of 2^-16, so the grid cell of any
// probability is a table lookup on its top 16 bits — the counting-sort key
// of the sweep below.
const (
	curvePoints = 1 + 13*4 + 1 + 6*4 + 1
	cellBits    = 16
)

var lossGrid = func() (g [curvePoints]float64) {
	j := 1 // g[0] = 0
	for e := -14; e <= -2; e++ {
		for m := 0.0; m < 4; m++ {
			g[j] = math.Ldexp(1+m/4, e)
			j++
		}
	}
	g[j] = 0.5
	j++
	for e := -2; e >= -7; e-- {
		for m := 3.0; m >= 0; m-- {
			g[j] = 1 - math.Ldexp(1+m/4, e)
			j++
		}
	}
	g[j] = 1
	return g
}()

// cellOf[i] is how many grid points are <= i·2^-16: j of them from
// lossGrid[j-1] up to, not including, lossGrid[j].
var cellOf = func() (c [1 << cellBits]uint8) {
	for j := 1; j < curvePoints; j++ {
		lo, hi := int(lossGrid[j-1]*(1<<cellBits)), int(lossGrid[j]*(1<<cellBits))
		for i := lo; i < hi; i++ {
			c[i] = uint8(j)
		}
	}
	return c
}()

// gridCell returns how many grid points are <= p, for p >= 0:
// lossGrid[gridCell(p)-1] <= p < lossGrid[gridCell(p)].
func gridCell(p float64) int {
	if p >= 1 {
		return curvePoints
	}
	return int(cellOf[int(p*(1<<cellBits))])
}

// LossCurve is the error model evaluated once: the expected relative
// window error at every probe of the loss grid, from one Monte-Carlo sweep
// (Estimator.LossCurve). It is a plain value — AQKSlack caches one between
// refreshes and snapshots it.
type LossCurve struct {
	errs []float64 // errs[j] = expected error at loss probability lossGrid[j]
}

// Err returns the expected relative error at loss probability p, linearly
// interpolated between the neighbouring probes.
func (c LossCurve) Err(p float64) float64 {
	if p <= 0 {
		return 0
	}
	j := gridCell(p)
	if j == curvePoints {
		return c.errs[curvePoints-1]
	}
	lo, eLo := lossGrid[j-1], c.errs[j-1]
	return eLo + (c.errs[j]-eLo)*(p-lo)/(lossGrid[j]-lo)
}

// MaxLoss inverts the curve: the largest loss probability up to which the
// expected error stays within target — where the interpolated curve first
// rises above it, or 1 if it never does.
func (c LossCurve) MaxLoss(target float64) float64 {
	if target <= 0 {
		return 0
	}
	for j := 1; j < curvePoints; j++ {
		if c.errs[j] > target {
			lo, eLo := lossGrid[j-1], c.errs[j-1]
			return lo + (lossGrid[j]-lo)*(target-eLo)/(c.errs[j]-eLo)
		}
	}
	return 1
}

// LossCurve runs the error model: Monte-Carlo over synthetic windows of the
// estimated size drawn from the value sample, each element lost with
// probability p, the thinned window's aggregate compared against the full
// one. The generic simulation handles every aggregate — including max and
// quantiles, whose error is driven by the value distribution, not just the
// loss fraction.
//
// All probes share their random numbers: each element gets one uniform u
// and survives loss probability p iff u >= p, so the survivor sets are
// nested and one pass per trial, adding elements in descending-u order,
// visits every probe's thinned window in turn and ends on the full one.
// For sum and count over positive values that makes the curve exactly
// monotone, not just monotone in expectation.
func (e *Estimator) LossCurve() LossCurve {
	c := LossCurve{errs: make([]float64, curvePoints)}
	sample := e.values.Sample()
	if len(sample) == 0 {
		// No value information yet: fall back to the loss fraction, the
		// exact error of count and the iid-expected error of sum.
		copy(c.errs, lossGrid[:])
		return c
	}
	n := min(e.WindowCount(), maxWindow)
	if e.sweep == nil {
		e.sweep = make([]sweepTrial, e.trials)
	}
	// Draw every trial's window before sweeping any, trial after trial as
	// ever: per element an index into the sample and the 64 bits behind a
	// uniform u. Its grid cell is cellOf[bits>>48], which is gridCell(u):
	// gridCell reads the integer part of u·2^16, and u is those bits' top
	// 53 scaled by 2^-53.
	var idx [maxWindow]int
	var bits [maxWindow]uint64
	var cells [maxWindow]uint8
	for t := range e.sweep {
		s := &e.sweep[t]
		e.rng.IntnUint64s(len(sample), idx[:n], bits[:n])
		s.end = [curvePoints + 1]int{} // end[b] counts the draws in grid cell b
		for i, x := range bits[:n] {
			cells[i] = cellOf[x>>(64-cellBits)]
			s.end[cells[i]]++
		}
		// Counting sort by cell, highest first. Afterwards end[b] is where
		// cell b stops, so sorted[:end[j+1]] are the survivors at
		// lossGrid[j] (a draw in cell b has u >= lossGrid[b-1]).
		at := 0
		for b := curvePoints; b > 0; b-- {
			at, s.end[b] = at+s.end[b], at
		}
		for i, b := range cells[:n] {
			s.sorted[s.end[b]] = sample[idx[i]]
			s.end[b]++
		}
		s.thin, s.added = e.agg.New(), 0
	}
	e.sweepTrials()
	for t := range e.sweep {
		for j, v := range e.sweep[t].value {
			c.errs[j] += relErrEst(v, e.sweep[t].value[0])
		}
	}
	for j := range c.errs {
		c.errs[j] /= float64(e.trials)
	}
	return c
}

// maxWindow caps the simulated window size: beyond ~1k elements the
// relative error of subset aggregates is insensitive to n for the loss
// probabilities of interest, and the cap bounds adaptation cost.
const maxWindow = 1024

// sweepTrial is one Monte-Carlo trial of a loss-curve sweep.
type sweepTrial struct {
	sorted [maxWindow]float64   // the window's values by grid cell, highest first
	end    [curvePoints + 1]int // where each cell stops in sorted
	thin   window.Aggregate     // the thinned window at the current probe
	added  int                  // how many of sorted thin holds
	value  [curvePoints]float64 // thin's value at every probe
}

// sweepTrials runs every trial from p = 1, where nothing survives, down to
// p = 0, where the thinned window is the full one, recording the thinned
// aggregate at each probe: at lossGrid[j] a trial's thinned window is its
// first end[j+1] sorted draws. The trials go through each grid cell
// together, a draw each in turn for as many draws as every one of them has
// there, then each its rest: their chains of dependent additions overlap
// in the CPU. No bit changes — each thinned aggregate still receives its
// own values, and is read, in the same order.
func (e *Estimator) sweepTrials() {
	trials := e.sweep
	for j := curvePoints - 1; j >= 0; j-- {
		common := maxWindow
		for t := range trials {
			s := &trials[t]
			common = min(common, s.end[j+1]-s.added)
		}
		for r := 0; r < common; r++ {
			for t := range trials {
				s := &trials[t]
				s.thin.Add(s.sorted[s.added+r])
			}
		}
		for t := range trials {
			s := &trials[t]
			for s.added += common; s.added < s.end[j+1]; s.added++ {
				s.thin.Add(s.sorted[s.added])
			}
			s.value[j] = s.thin.Value()
		}
	}
}

// relErrEst mirrors metrics.RelErr without importing it (core must not
// depend on the measurement package).
func relErrEst(e, o float64) float64 {
	eNaN, oNaN := math.IsNaN(e), math.IsNaN(o)
	switch {
	case eNaN && oNaN:
		return 0
	case eNaN || oNaN:
		return 1
	}
	den := math.Abs(o)
	if den < 1e-9 {
		den = 1e-9
	}
	return math.Abs(e-o) / den
}

// MaxTolerableLoss inverts the error model: it returns the largest
// (tuple, window) loss probability whose estimated relative error stays
// within target. This is the expensive half of slack selection — one
// Monte-Carlo sweep — and its result depends only on the value
// distribution and window size, which drift slowly; AQKSlack keeps the
// curve across adaptation steps.
func (e *Estimator) MaxTolerableLoss(target float64) float64 {
	return e.LossCurve().MaxLoss(target)
}

// MinKForLoss returns the smallest slack in [0, kMax] whose loss
// probability PLoss(k) is at most pMax: the handler's cheap, every-adaptation
// half of slack selection, which only reads the lateness sketch, for a caller
// of the estimator alone.
func (e *Estimator) MinKForLoss(pMax float64, kMax stream.Time) stream.Time {
	return minSlack(e.lateness, pMax, kMax, e.PLoss)
}

// minSlack returns the smallest slack in [0, kMax] whose loss — a
// non-increasing function of k read from the lateness sketch at k plus
// positive offsets — is at most budget. It bisects between 0 and the
// sketch's largest lateness, rounded up, where the loss is 0, so that bound
// never changes the answer (a negative or NaN budget, which no slack
// meets, keeps kMax). The handler searches this way under either model.
func minSlack(sketch *stats.GK, budget float64, kMax stream.Time, loss func(stream.Time) float64) stream.Time {
	if kMax <= 0 || loss(0) <= budget {
		return 0
	}
	lo, hi := stream.Time(0), kMax // invariant: loss(lo) > budget
	if m := math.Ceil(sketch.Max()); budget >= 0 && m < float64(kMax) {
		hi = stream.Time(m)
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if loss(mid) <= budget {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// MinK returns the smallest slack in [0, kMax] whose estimated relative
// error meets target: the composition of MaxTolerableLoss and
// MinKForLoss.
func (e *Estimator) MinK(target float64, kMax stream.Time) stream.Time {
	return e.MinKForLoss(e.MaxTolerableLoss(target), kMax)
}
