package core

import (
	"repro/internal/buffer"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// This file exports and restores the adaptive controller's state for
// crash-consistent snapshots (internal/durable). The contract matches the
// rest of the State/Restore family: a restored AQKSlack fed the identical
// item suffix makes identical slack decisions and identical releases,
// because every input to the adaptation loop — lateness histogram, sample, RNG, PI
// integral, realized error, adaptation bookkeeping — round-trips exactly.
// The windows awaiting their feedback horizon are the query's window
// operator's, and round-trip in its state (window.OpState.Kept).
//
// Deliberately NOT persisted: the adaptation trace (a debugging artifact),
// telemetry and tracer attachments (runtime wiring, re-attached by the host
// process), and scratch buffers.

// PIState is the exported state of a PI controller. Gains and clamp bounds
// are included — a snapshot taken under one tuning must not be silently
// reinterpreted under another.
//
// A state written while the controller still kept its last output carries it
// ("lastFactor", "hasOutput"); nothing read it, and it is ignored.
type PIState struct {
	Kp        float64 `json:"kp"`
	Ki        float64 `json:"ki"`
	MinFactor float64 `json:"minFactor"`
	MaxFactor float64 `json:"maxFactor"`
	Integral  float64 `json:"integral"`
	Clamps    int64   `json:"clamps"`
}

// State exports the controller state, gains included.
func (c *PI) State() PIState {
	return PIState{
		Kp: c.Kp, Ki: c.Ki, MinFactor: c.MinFactor, MaxFactor: c.MaxFactor,
		Integral: c.integral, Clamps: c.clamps,
	}
}

// Restore sets the controller to a previously exported state, including
// gains.
func (c *PI) Restore(st PIState) {
	c.Kp, c.Ki, c.MinFactor, c.MaxFactor = st.Kp, st.Ki, st.MinFactor, st.MaxFactor
	c.integral, c.clamps = st.Integral, st.Clamps
}

// EstimatorState is the exported state of an Estimator. The RNG is shared
// with the reservoir, so it is snapshotted exactly once, here.
//
// A state written while the estimator kept a Greenwald–Khanna sketch of
// lateness carries it ("lateness"): it restores into the histogram
// (stats.LogHist.AddGK).
type EstimatorState struct {
	Hist     stats.LogHistState   `json:"latenessHist"`
	Lateness *stats.GKState       `json:"lateness,omitempty"`
	Values   stats.ReservoirState `json:"values"`
	WinCount stats.EWMAState      `json:"winCount"`
	RNG      stats.RNGState       `json:"rng"`
	Observed int64                `json:"observed"`
}

// State exports the estimator state.
func (e *Estimator) State() EstimatorState {
	st := EstimatorState{Hist: e.lateness.State(), Observed: e.observed}
	if e.values != nil {
		st.Values, st.WinCount, st.RNG = e.values.State(), e.winCount.State(), e.rng.State()
	}
	return st
}

// Restore sets the estimator to a previously exported state.
func (e *Estimator) Restore(st EstimatorState) {
	e.lateness.Restore(st.Hist)
	if st.Lateness != nil {
		e.lateness.AddGK(*st.Lateness)
	}
	if e.values != nil {
		e.values.Restore(st.Values)
		e.winCount.Restore(st.WinCount)
		e.rng.Restore(st.RNG)
	}
	e.observed = st.Observed
}

// AQState is the exported state of an AQKSlack handler.
type AQState struct {
	Buf buffer.SlackState `json:"buf"`
	Est EstimatorState    `json:"est"`
	PI  PIState           `json:"pi"`

	Realized stats.EWMAState `json:"realized"`
	// Curve is the loss model's cached loss curve, one expected error per
	// grid probe. A snapshot without it (taken before the first refresh, or
	// by a version that cached only the inverted curve) restores with none,
	// and the next adaptation refreshes.
	Curve    []float64 `json:"curve,omitempty"`
	CurveAge int       `json:"curveAge"`
	// Seen is the recall model's pair counts at its last adaptation:
	// emitted, and emitted + missed. Nil for the loss model.
	Seen       *[2]float64  `json:"seen,omitempty"`
	LastAdapt  stream.Time  `json:"lastAdapt"`
	AdaptInit  bool         `json:"adaptInit"`
	QStats     QualityStats `json:"qstats"`
	LastClamps int64        `json:"lastClamps"`
}

// State exports the handler state.
func (a *AQKSlack) State() AQState {
	st := AQState{
		Buf:        a.buf.State(),
		Est:        a.est.State(),
		PI:         a.pi.State(),
		Realized:   a.realized.State(),
		Curve:      a.curve.errs, // never written after it is built
		CurveAge:   a.curveAge,
		LastAdapt:  a.lastAdapt,
		AdaptInit:  a.adaptInit,
		QStats:     a.qstats,
		LastClamps: a.lastClamps,
	}
	if _, ok := a.model.(recallModel); ok {
		st.Seen = &[2]float64{a.seen.Emitted, a.seen.Full}
	}
	return st
}

// Restore sets the handler to a previously exported state. The handler must
// have been built with the same Config (or JoinConfig) as the one the state
// was saved from. A state written while the handler still computed its own
// windows carries them ("shadow", "full", "emitted"); they are ignored, and
// the windows then in flight lose their realized-error sample.
func (a *AQKSlack) Restore(st AQState) error {
	a.buf.Restore(st.Buf)
	a.est.Restore(st.Est)
	a.pi.Restore(st.PI)
	a.realized.Restore(st.Realized)
	a.curve = LossCurve{}
	if len(st.Curve) == curvePoints {
		a.curve.errs = st.Curve
	}
	a.curveAge = st.CurveAge
	a.seen = window.Final{}
	if st.Seen != nil {
		a.seen.Emitted, a.seen.Full = st.Seen[0], st.Seen[1]
	}
	a.lastAdapt, a.adaptInit, a.due = st.LastAdapt, st.AdaptInit, false
	a.qstats = st.QStats
	a.lastClamps = st.LastClamps
	a.trace, a.traceHead = nil, 0 // the adaptation trace is not persisted
	return nil
}

// Recall implements buffer.FeedbackHandler: the recall target of a handler
// NewAQJoin built, and 0 for the loss model's. The executor refuses a handler
// whose model does not fit its query by it, and it tells a recall handler's
// snapshots from the other's.
func (a *AQKSlack) Recall() float64 {
	if m, ok := a.model.(recallModel); ok {
		return m.recall
	}
	return 0
}
