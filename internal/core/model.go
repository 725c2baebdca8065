package core

import (
	"math"

	"repro/internal/stream"
	"repro/internal/window"
)

// qualityModel is the quality function of the adaptive handler's control
// loop: what a slack costs in quality, and how the query's reports become
// realized error. It keeps no state of its own — what it caches is the
// handler's — and the handler consults it per feedback call and per
// adaptation, never per tuple. lossModel (NewAQKSlack) is the window
// aggregate's, recallModel (NewAQJoin) the band join's.
type qualityModel interface {
	// feedback takes what the query's stage reported (buffer.FeedbackHandler)
	// into the handler's realized error, before a due adaptation runs: one
	// AQKSlack.fold per report it takes in.
	feedback(a *AQKSlack, fs []window.Final)
	// budget returns the largest loss whose predicted error meets target,
	// refreshing whatever the handler caches for the model.
	budget(a *AQKSlack, target float64) float64
	// loss is the predicted loss at slack k, non-increasing in k; err is the
	// predicted error there, the trace's EstErr.
	loss(a *AQKSlack, k stream.Time) float64
	err(a *AQKSlack, k stream.Time) float64
}

// lossModel is the window aggregate's quality model: the loss probability of
// a (tuple, window) contribution (PLoss), and the loss curve that maps it to
// the expected relative window error, which the handler caches and re-runs
// every lossRefresh adaptations.
type lossModel struct{}

// feedback takes each reported window's complete count into the estimator
// and folds its relative error, known a feedback horizon past its end.
func (lossModel) feedback(a *AQKSlack, fs []window.Final) {
	for _, f := range fs {
		a.est.ObserveWindowCount(f.N)
		_, end := a.cfg.Spec.Bounds(f.Idx)
		a.fold(end+a.cfg.FeedbackHorizon, f.Idx, relErrEst(f.Emitted, f.Full))
	}
}

// budget re-runs the error model every lossRefresh adaptations (and after
// restoring a snapshot that carried no curve) and inverts it at target.
func (lossModel) budget(a *AQKSlack, target float64) float64 {
	if a.curveAge == 0 || a.curve.errs == nil {
		a.curve = a.est.LossCurve()
	}
	a.curveAge = (a.curveAge + 1) % lossRefresh
	return a.curve.MaxLoss(target)
}

func (lossModel) loss(a *AQKSlack, k stream.Time) float64 { return a.est.PLoss(k) }

func (lossModel) err(a *AQKSlack, k stream.Time) float64 { return a.curve.Err(a.est.PLoss(k)) }

// JoinConfig parameterizes the recall model (NewAQJoin): the join's
// declaration — the Recall target and the Band, both required, and the number
// of Streams — and its warm-up. Zero values select documented defaults; the
// rest is Config's constants, scaled by the band.
type JoinConfig struct {
	Recall float64     // recall target in (0, 1), e.g. 0.99
	Band   stream.Time // the downstream join's band
	// Streams is the number of joined streams (m-way); default 2. A
	// combination survives only if none of its m constituents straggles,
	// missRate = 1 − (1−p)^m.
	Streams int

	WarmupTuples int64 // tuples before first adaptation; default 200
}

// recallModel is the band join's quality model. A pair is missed when one
// constituent straggles past the partner's residence in the join state. A
// tuple released with effective lateness L − K probes partners whose expiry
// headroom is Band + Δts, with Δts uniform over [−Band, Band]; averaging over
// that headroom gives the per-tuple miss probability
//
//	p(K) = E_u[ P(L > K + u) ],  u ~ U[0, 2·Band]
//
// — the estimator's PLoss over eight headroom offsets — and a pair survives
// only if neither side misses: missRate ≈ 1 − (1−p)². The error bound is
// the miss budget 1 − Recall; the realized miss rate is the join's own
// retained-state miss accounting, which its stage reports (cq's joinStage).
type recallModel struct{ recall, streams float64 }

// NewAQJoin returns the adaptive handler with the recall model: its slack is
// approximately the smallest whose predicted pair recall meets the target.
// Behind a join query (cq.JoinQuery) it is fed the join's realized recall;
// driven by Insert alone it runs open loop, on the model. It panics on a
// recall target outside (0, 1) or a non-positive band.
func NewAQJoin(jc JoinConfig) *AQKSlack {
	if jc.Recall <= 0 || jc.Recall >= 1 {
		panic("core: join recall target must be in (0, 1)")
	}
	if jc.Band <= 0 {
		panic("core: join band must be positive")
	}
	// A tuple's partners lie within one band: it scales the defaults and the
	// constants as the window does an aggregate's.
	cfg := Config{
		Theta: 1 - jc.Recall, Spec: window.Spec{Size: jc.Band, Slide: jc.Band},
		WarmupTuples: jc.WarmupTuples,
	}.withDefaults()
	if jc.Streams == 0 {
		jc.Streams = 2
	}
	// The model probes per-tuple tail probabilities around half the pair
	// budget; keep the margin well below that.
	est := newLatenessEstimator(8, float64(2*jc.Band)/8, tailMargin(safety*cfg.Theta/8))
	return newHandler(cfg, est, recallModel{jc.Recall, float64(jc.Streams)})
}

// feedback folds the miss rate of the pairs emitted and missed since the
// last adaptation when one is due: the stage reports cumulative counts, as
// they stood before the due item's releases. The sample is numbered by the
// reports folded before it and stamped with the buffer's clock.
func (recallModel) feedback(a *AQKSlack, fs []window.Final) {
	if !a.due || len(fs) == 0 {
		return
	}
	cur := fs[len(fs)-1]
	emitted, total := cur.Emitted-a.seen.Emitted, cur.Full-a.seen.Full
	a.seen = cur
	if total > 0 {
		a.fold(a.buf.Clock(), a.qstats.FinalizedWins, (total-emitted)/total)
	}
}

func (recallModel) budget(_ *AQKSlack, target float64) float64 { return target }

// loss is the combination miss rate at slack k: a result survives only if
// none of its streams' constituents straggles.
func (m recallModel) loss(a *AQKSlack, k stream.Time) float64 {
	return 1 - math.Pow(1-a.est.PLoss(k), m.streams)
}

func (m recallModel) err(a *AQKSlack, k stream.Time) float64 { return m.loss(a, k) }
