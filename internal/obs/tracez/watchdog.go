package tracez

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Watchdog turns a query's declared quality bound θ into continuous
// SLO verdicts: every finalized window's realized error is compared
// against θ, and the watchdog tracks whether the query is currently in
// violation, how many violations have started, and how long (wall time)
// it has spent in violation. The clock is injectable so the
// deterministic simulation harness can drive it on virtual time.
//
// Register publishes the verdicts as aq_quality_violation_total and
// aq_time_in_violation_ms; aqserver additionally surfaces InViolation
// in /readyz and the Tracer snapshots the flight recorder when a
// violation starts.
type Watchdog struct {
	theta float64
	now   func() time.Time

	mu          sync.Mutex
	inViolation bool
	since       time.Time
	violatedMs  float64 // accumulated, completed violations only
	count       int64
}

// NewWatchdog returns a watchdog for the bound theta. now supplies wall
// time for the time-in-violation accounting; nil means time.Now.
func NewWatchdog(theta float64, now func() time.Time) *Watchdog {
	if now == nil {
		now = time.Now
	}
	return &Watchdog{theta: theta, now: now}
}

// Theta returns the declared quality bound.
func (w *Watchdog) Theta() float64 {
	if w == nil {
		return 0
	}
	return w.theta
}

// Register publishes the watchdog's verdicts into reg, labelled with the
// query name: aq_quality_violation_total (violations entered) and
// aq_time_in_violation_ms (cumulative wall time spent above θ, including
// an ongoing violation).
func (w *Watchdog) Register(reg *obs.Registry, query string) {
	if w == nil || reg == nil {
		return
	}
	q := obs.L("query", query)
	reg.CounterFunc("aq_quality_violation_total",
		"Quality-SLO violations entered (realized window error exceeded theta).",
		func() float64 { return float64(w.Violations()) }, q)
	reg.GaugeFunc("aq_time_in_violation_ms",
		"Cumulative wall-clock time the query's realized error has spent above theta.",
		func() float64 { return float64(w.TimeInViolation()) / float64(time.Millisecond) }, q)
}

// Observe feeds one finalized window's realized error. It returns
// whether this sample started a violation, and — when it ended one —
// the completed violation's length in wall milliseconds (endedMs < 0
// otherwise).
func (w *Watchdog) Observe(win int64, realized float64) (started bool, endedMs float64) {
	if w == nil {
		return false, -1
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	endedMs = -1
	if realized > w.theta {
		if !w.inViolation {
			w.inViolation = true
			w.since = w.now()
			w.count++
			started = true
		}
		return started, endedMs
	}
	if w.inViolation {
		d := w.now().Sub(w.since)
		w.violatedMs += float64(d) / float64(time.Millisecond)
		w.inViolation = false
		endedMs = float64(d) / float64(time.Millisecond)
	}
	return started, endedMs
}

// InViolation reports whether the query is currently above θ.
func (w *Watchdog) InViolation() bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inViolation
}

// Violations counts violations entered so far.
func (w *Watchdog) Violations() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// TimeInViolation returns the cumulative wall time spent above θ,
// including the ongoing violation if one is active.
func (w *Watchdog) TimeInViolation() time.Duration {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	d := time.Duration(w.violatedMs * float64(time.Millisecond))
	if w.inViolation {
		d += w.now().Sub(w.since)
	}
	return d
}
