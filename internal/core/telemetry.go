package core

import (
	"repro/internal/obs"
)

// Telemetry bundles the obs instruments the adaptive handler updates as
// its control loop runs: the model-estimated and realized errors, the PI
// correction factor, and counters of adaptation steps, clamped PI outputs
// and finalized (ground-truth-known) windows. The chosen slack is not
// among them: it is the handler's K, which the query's cq.Telemetry
// exports as aq_buffer_k_ms for every handler. All update paths tolerate
// a nil *Telemetry, so an uninstrumented handler pays one pointer check
// per adaptation, not per tuple.
type Telemetry struct {
	Adaptations *obs.Counter // adaptation steps taken
	PIClamps    *obs.Counter // PI outputs that hit the factor clamp
	Finalized   *obs.Counter // windows (a join: reports) whose realized error became known
	EstErr      *obs.Gauge   // model-estimated relative error at the chosen K
	RealizedErr *obs.Gauge   // realized relative-error EWMA
	PIFactor    *obs.Gauge   // last PI correction factor
	Theta       *obs.Gauge   // configured quality bound (constant; for dashboard ratio panels)
}

// NewTelemetry registers the controller's metrics under the aq_ prefix,
// labelled with the query name.
func NewTelemetry(reg *obs.Registry, query string) *Telemetry {
	q := obs.L("query", query)
	return &Telemetry{
		Adaptations: reg.Counter("aq_controller_adaptations_total",
			"Adaptation steps taken by the quality-driven controller.", q),
		PIClamps: reg.Counter("aq_controller_pi_clamps_total",
			"PI controller outputs clamped at MinFactor/MaxFactor.", q),
		Finalized: reg.Counter("aq_quality_finalized_windows_total",
			"Windows whose eventually-complete value (and thus realized error) became known.", q),
		EstErr: reg.Gauge("aq_quality_est_err",
			"Model-estimated relative window error at the chosen slack.", q),
		RealizedErr: reg.Gauge("aq_quality_realized_err",
			"EWMA of realized (a posteriori) relative window error.", q),
		PIFactor: reg.Gauge("aq_controller_pi_factor",
			"Multiplicative correction factor last applied by the PI trim.", q),
		Theta: reg.Gauge("aq_quality_theta",
			"Configured bound on relative window error.", q),
	}
}

// Instrument attaches telemetry to the handler; subsequent adaptation
// steps and window finalizations publish to it. The theta gauge is set
// immediately so the quality target is scrapable before the first
// adaptation.
func (a *AQKSlack) Instrument(t *Telemetry) {
	a.telem = t
	if t != nil {
		t.Theta.Set(a.cfg.Theta)
		t.PIFactor.Set(1)
	}
}
