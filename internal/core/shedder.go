package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// ShedConfig parameterizes Shedder. Theta, Spec, Agg and TargetRate are
// required.
type ShedConfig struct {
	// Theta is the shedder's share of the query's relative-error budget
	// (see the note on budget splitting in NewShedder).
	Theta float64
	Spec  window.Spec
	Agg   window.Factory
	// TargetRate is the maximum downstream load in tuples per 1000
	// stream-time units. When the offered rate exceeds it, the shedder
	// drops uniformly at random — but never beyond the quality budget.
	TargetRate float64

	// Compensate enables Horvitz–Thompson compensation: survivor values
	// are scaled by 1/(1−p), making shedding unbiased for linear
	// aggregates (sum) and letting the quality budget permit far higher
	// shedding rates. The error model simulates the compensation, so
	// enabling it for a non-linear aggregate simply yields a small
	// budget rather than wrong results.
	Compensate bool

	Safety       float64     // target error = Safety·Theta; default 0.8
	AdaptEvery   stream.Time // adaptation period; default Spec.Slide
	Estimator    EstimatorConfig
	WarmupTuples int64 // tuples before shedding starts; default 200
}

func (c ShedConfig) withDefaults() ShedConfig {
	if c.Safety == 0 {
		c.Safety = 0.8
	}
	if c.AdaptEvery == 0 {
		c.AdaptEvery = c.Spec.Slide
	}
	if c.WarmupTuples == 0 {
		c.WarmupTuples = 200
	}
	if c.Estimator.SketchEps == 0 {
		c.Estimator.SketchEps = clampEps(c.Safety * c.Theta / 4)
	}
	return c
}

// ShedStats are the shedder's cumulative counters.
type ShedStats struct {
	Offered     int64   // tuples offered
	Shed        int64   // tuples dropped
	PShed       float64 // current drop probability
	PWanted     float64 // drop probability the load target asked for (last)
	PBudget     float64 // drop probability the quality budget allows (last)
	MeanPWanted float64 // mean wanted probability over all adaptations
	MeanPBudget float64 // mean budget over all adaptations
	RateIn      float64 // offered tuples per 1000 stream-time units (EWMA)
	Adaptations int
}

// ShedFrac returns the overall fraction of tuples dropped.
func (s ShedStats) ShedFrac() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Shed) / float64(s.Offered)
}

// String renders the counters.
func (s ShedStats) String() string {
	return fmt.Sprintf("shed{offered=%d shed=%d (%.2f%%) p=%.4f rateIn=%.1f}",
		s.Offered, s.Shed, 100*s.ShedFrac(), s.PShed, s.RateIn)
}

// Shedder is quality-driven load shedding: under overload it drops tuples
// uniformly at random before the disorder-handling buffer, with the drop
// probability capped by the same aggregate error model that drives
// AQ-K-slack — the quality bound is spent on shedding only up to its
// budget, and load reduction beyond that budget is refused (quality wins).
//
// Uniform random shedding composes with disorder loss: both are
// (approximately) independent thinning processes, so the combined loss
// fraction is 1−(1−pShed)(1−pLate). Split the query's error budget
// between the shedder and the buffer accordingly — the canonical split is
// half each, e.g. for a 1% query bound configure the Shedder and the
// AQKSlack it wraps with Theta = 0.005 apiece.
//
// Shedder implements buffer.Handler by delegating the buffering half to
// an inner handler, and buffer.FeedbackHandler by forwarding to an adaptive
// one.
type Shedder struct {
	cfg   ShedConfig
	inner buffer.Handler
	fb    buffer.FeedbackHandler // inner, when it takes feedback
	one   [1]stream.Item
	est   *Estimator
	rng   *stats.RNG

	pShed       float64
	rateEWMA    *stats.EWMA
	periodStart stream.Time
	periodCount int64
	clock       stream.Time
	started     bool
	lossRefresh int
	pBudget     float64
	lastPWanted float64
	sumPWanted  float64
	sumPBudget  float64
	stats       ShedStats

	// tuples-per-window estimation: counts per event-time Size-bucket,
	// finalized once the event clock is safely past a bucket (buckets
	// cannot be closed on arrival-order switches — stragglers flip back).
	buckets    map[int64]int64
	minBucket  int64
	bucketInit bool
	eventClock stream.Time
}

// NewShedder wraps inner (typically an AQKSlack configured with the other
// half of the error budget) with quality-driven shedding. It panics on an
// invalid spec, non-positive Theta or TargetRate, or nil inner.
func NewShedder(cfg ShedConfig, inner buffer.Handler) *Shedder {
	if err := cfg.Spec.Validate(); err != nil {
		panic(err)
	}
	if cfg.Theta <= 0 {
		panic("core: shedder Theta must be positive")
	}
	if cfg.TargetRate <= 0 {
		panic("core: shedder TargetRate must be positive")
	}
	if inner == nil {
		panic("core: shedder needs an inner handler")
	}
	cfg = cfg.withDefaults()
	fb, _ := inner.(buffer.FeedbackHandler)
	return &Shedder{
		cfg:      cfg,
		inner:    inner,
		fb:       fb,
		est:      NewEstimator(cfg.Spec, cfg.Agg, cfg.Estimator),
		rng:      stats.NewRNG(cfg.Estimator.Seed ^ 0x5851f42d4c957f2d),
		rateEWMA: stats.NewEWMA(0.3),
		buckets:  make(map[int64]int64),
	}
}

// Insert implements buffer.Handler: the tuple is dropped with the current
// shedding probability, otherwise forwarded to the inner handler.
func (s *Shedder) Insert(it stream.Item, out []stream.Tuple) []stream.Tuple {
	if it, ok := s.admit(it); ok {
		return s.inner.Insert(it, out)
	}
	return out
}

// admit is the shedding decision over one item: whether it goes on to the
// inner handler, and as what.
func (s *Shedder) admit(it stream.Item) (stream.Item, bool) {
	if it.Heartbeat {
		return it, true
	}
	t := it.Tuple
	s.stats.Offered++
	s.observe(t)
	s.maybeAdapt(t.Arrival)
	if s.pShed > 0 && s.stats.Offered > s.cfg.WarmupTuples {
		if s.rng.Float64() < s.pShed {
			s.stats.Shed++
			return it, false
		}
		if s.cfg.Compensate {
			t.Value /= 1 - s.pShed
			it = stream.DataItem(t)
		}
	}
	return it, true
}

// FeedbackHorizon is the inner handler's, or 0 when it takes no feedback
// (buffer.FeedbackHandler): InsertRun and Feedback then have nothing to
// forward to, and the executor inserts item by item (Insert).
func (s *Shedder) FeedbackHorizon() stream.Time {
	if s.fb == nil {
		return 0
	}
	return s.fb.FeedbackHorizon()
}

// InsertRun admits items one at a time into the inner handler's InsertRun,
// and stops behind the one after which the inner handler's adaptation falls
// due: the shedder decides nothing ahead of what the inner handler takes. A
// shed item releases nothing but still has its entry in ends.
func (s *Shedder) InsertRun(items []stream.Item, out []stream.Tuple, ends []int) ([]stream.Tuple, []int, bool) {
	for i := range items {
		it, ok := s.admit(items[i])
		if !ok {
			ends = append(ends, len(out))
			continue
		}
		s.one[0] = it
		var due bool
		if out, ends, due = s.fb.InsertRun(s.one[:], out, ends); due {
			return out, ends, true
		}
	}
	return out, ends, false
}

// Feedback forwards the query operator's reports to the inner handler.
func (s *Shedder) Feedback(fs []window.Final) { s.fb.Feedback(fs) }

// observe feeds the estimator and the rate/window-count measurements.
func (s *Shedder) observe(t stream.Tuple) {
	s.est.ObserveTuple(0, t.Value) // lateness is the buffer's concern, not ours
	if !s.started {
		s.started = true
		s.periodStart = t.Arrival
	}
	if t.Arrival > s.clock {
		s.clock = t.Arrival
	}
	s.periodCount++

	// Tuples per window, from event-time Size-buckets of the offered
	// stream (the error model simulates loss against the full window).
	// A bucket is finalized once the event clock is two bucket-lengths
	// past it, so ordinary stragglers still land in their bucket.
	bucket := t.TS / s.cfg.Spec.Size
	if !s.bucketInit {
		s.minBucket, s.bucketInit = bucket, true
	}
	if bucket >= s.minBucket {
		s.buckets[bucket]++
	}
	if t.TS > s.eventClock {
		s.eventClock = t.TS
	}
	doneThrough := s.eventClock/s.cfg.Spec.Size - 2
	for s.minBucket <= doneThrough {
		if n := s.buckets[s.minBucket]; n > 0 {
			s.est.ObserveWindowCount(n)
		}
		delete(s.buckets, s.minBucket)
		s.minBucket++
	}
}

func (s *Shedder) maybeAdapt(now stream.Time) {
	elapsed := now - s.periodStart
	if elapsed < s.cfg.AdaptEvery || s.periodCount == 0 {
		return
	}
	rate := float64(s.periodCount) / float64(elapsed) * 1000
	s.rateEWMA.Add(rate)
	s.periodStart = now
	s.periodCount = 0

	if s.stats.Offered < s.cfg.WarmupTuples {
		return
	}
	// Load half: the drop probability that brings the offered rate down
	// to the target.
	pWanted := 0.0
	if r := s.rateEWMA.Value(); r > s.cfg.TargetRate {
		pWanted = 1 - s.cfg.TargetRate/r
	}
	s.lastPWanted = pWanted

	// Quality half: the loss budget the error model grants (refreshed
	// every few adaptations; it drifts with the value distribution).
	if s.lossRefresh == 0 {
		s.pBudget = s.est.MaxTolerableShed(s.cfg.Safety*s.cfg.Theta, s.cfg.Compensate)
	}
	s.lossRefresh = (s.lossRefresh + 1) % 8

	p := pWanted
	if p > s.pBudget {
		p = s.pBudget // quality wins: refuse to shed beyond the budget
	}
	s.pShed = p
	s.sumPWanted += pWanted
	s.sumPBudget += s.pBudget
	s.stats.Adaptations++
}

// Flush implements buffer.Handler.
func (s *Shedder) Flush(out []stream.Tuple) []stream.Tuple { return s.inner.Flush(out) }

// K implements buffer.Handler (the inner buffer's slack).
func (s *Shedder) K() stream.Time { return s.inner.K() }

// Len implements buffer.Handler.
func (s *Shedder) Len() int { return s.inner.Len() }

// Stats implements buffer.Handler (the inner buffer's counters; shedding
// counters are on Shed()).
func (s *Shedder) Stats() buffer.Stats { return s.inner.Stats() }

// Shed returns the shedding counters.
func (s *Shedder) Shed() ShedStats {
	st := s.stats
	st.PShed = s.pShed
	st.PWanted = s.lastPWanted
	st.PBudget = s.pBudget
	if st.Adaptations > 0 {
		st.MeanPWanted = s.sumPWanted / float64(st.Adaptations)
		st.MeanPBudget = s.sumPBudget / float64(st.Adaptations)
	}
	st.RateIn = s.rateEWMA.Value()
	return st
}

// String implements buffer.Handler.
func (s *Shedder) String() string {
	return fmt.Sprintf("shed(theta=%g target=%g p=%.3f)+%v", s.cfg.Theta, s.cfg.TargetRate, s.pShed, s.inner)
}
