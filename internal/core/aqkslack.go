package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/obs/tracez"
	"repro/internal/stream"
	"repro/internal/window"
)

// Mode selects which parts of the adaptation loop are active; experiment
// R9 ablates them.
type Mode int

const (
	// ModeHybrid (default) combines the model-driven slack with the PI
	// trim from realized error.
	ModeHybrid Mode = iota
	// ModeModelOnly uses the estimator's slack directly (open loop).
	ModeModelOnly
	// ModePIOnly ignores the estimator and drives the slack purely by PI
	// feedback on realized error.
	ModePIOnly
	// ModePOnly is ModePIOnly with the integral gain zeroed (ablation).
	ModePOnly
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeModelOnly:
		return "model"
	case ModePIOnly:
		return "pi"
	case ModePOnly:
		return "p"
	default:
		return "hybrid"
	}
}

// Config parameterizes AQKSlack. Spec, Agg and Theta are required; zero
// values elsewhere select documented defaults.
type Config struct {
	Theta float64        // bound on relative window error, e.g. 0.01
	Spec  window.Spec    // the downstream query's window
	Agg   window.Factory // the downstream query's aggregate

	KMax            stream.Time // slack ceiling; default 64 × Spec.Size
	AdaptEvery      stream.Time // adaptation period; default Spec.Slide
	Safety          float64     // internal target = Safety·Theta; default 0.8
	Mode            Mode        // default ModeHybrid
	PI              *PI         // gains, copied per handler; default Kp 0.2, Ki 0.02, clamp [0.5, 2]
	Estimator       EstimatorConfig
	FeedbackHorizon stream.Time // straggler wait before realized error; default 4 × Spec.Size
	LossRefresh     int         // adaptations between loss-curve refreshes; default 8
	WarmupTuples    int64       // tuples before first adaptation; default 200
}

func (c Config) withDefaults() Config {
	if c.KMax == 0 {
		c.KMax = 64 * c.Spec.Size
	}
	if c.AdaptEvery == 0 {
		c.AdaptEvery = c.Spec.Slide
	}
	if c.Safety == 0 {
		c.Safety = 0.8
	}
	c.PI = ownPI(c.PI, c.Mode == ModePOnly)
	if c.FeedbackHorizon == 0 {
		c.FeedbackHorizon = 4 * c.Spec.Size
	}
	if c.LossRefresh == 0 {
		c.LossRefresh = 8
	}
	if c.WarmupTuples == 0 {
		c.WarmupTuples = 200
	}
	if c.Estimator.SketchEps == 0 {
		// The controller probes tail probabilities around Safety·Theta;
		// the sketch's rank error must be well below that or the model is
		// forced into gross over-buffering.
		c.Estimator.SketchEps = clampEps(c.Safety * c.Theta / 4)
	}
	return c
}

// clampEps bounds a derived sketch error to a practical range.
func clampEps(eps float64) float64 {
	const lo, hi = 0.0002, 0.005
	if eps < lo {
		return lo
	}
	if eps > hi {
		return hi
	}
	return eps
}

// traceCap bounds the adaptation trace: Trace returns the most recent
// traceCap samples. It is above the run length of every experiment and
// benchmark replay, so only long-lived server queries ever wrap.
const traceCap = 1 << 16

// KSample is one point of the adaptation trace.
type KSample struct {
	At          stream.Time // stream clock at the adaptation step
	K           stream.Time // slack chosen
	EstErr      float64     // model-estimated error at the chosen slack
	RealizedErr float64     // EWMA of realized (a posteriori) error
	PIFactor    float64     // correction factor applied
}

// QualityStats are the operator's cumulative quality-control counters.
type QualityStats struct {
	Adaptations     int
	FinalizedWins   int64   // windows (a join: reports) whose realized error is known
	RealizedErrEWMA float64 // current realized-error estimate
	LastEstErr      float64
	LastK           stream.Time
}

// AQKSlack is the quality-driven adaptive disorder handler, the one control
// loop of this package. It implements buffer.Handler, so it drops into any
// place a fixed K-slack buffer fits, and adapts its slack to the smallest
// value whose estimated + realized error stays within Theta. The error is
// its quality model's: the relative error of window aggregates (NewAQKSlack)
// or the pair miss rate 1 − recall of band joins (NewAQJoin).
//
// The realized error comes from the query's own operator, not from a
// computation of the handler's: cq.Exec has a window operator keep each
// emitted window until FeedbackHorizon past its end, adding the stragglers
// released meanwhile, and hands the handler the window's emitted and complete
// value then (Feedback); a join reports the pairs it emitted and missed. The
// realized error is fed back into the PI trim. Between adaptations the
// handler inserts a run at a time into its K-slack (InsertRun); the run ends
// at the item after which an adaptation falls due, and the adaptation waits
// until the operator has seen what the run released. A caller that drives
// Insert itself gets the same handler with no one to report back: the model
// half of the controller, with no realized feedback.
type AQKSlack struct {
	cfg   Config
	buf   *buffer.KSlack
	est   *Estimator
	model qualityModel
	pi    *PI
	mode  Mode

	realized  *ewmaOrZero
	curve     LossCurve    // loss model: error model as of the last refresh; empty before it
	curveAge  int          // loss model: adaptations since then, modulo LossRefresh
	seen      window.Final // recall model: the join's report at the last adaptation
	lastAdapt stream.Time
	adaptInit bool
	due       bool      // InsertRun stopped where an adaptation falls due
	trace     []KSample // ring of the last traceCap samples
	traceHead int       // oldest sample, once the ring is full
	qstats    QualityStats

	telem      *Telemetry     // optional live metrics; nil when uninstrumented
	tracer     *tracez.Tracer // optional event tracing; nil-safe when absent
	lastClamps int64          // PI clamp count already published to telem
}

// ewmaOrZero is a tiny EWMA that reports whether it has data.
type ewmaOrZero struct {
	v    float64
	init bool
}

func (e *ewmaOrZero) add(x float64) {
	if !e.init {
		e.v, e.init = x, true
		return
	}
	// Slow smoothing: realized errors arrive once per slide but reflect
	// decisions a feedback horizon ago; a twitchy average would feed the
	// controller its own noise.
	e.v += 0.1 * (x - e.v)
}

// NewAQKSlack returns the adaptive handler with the window aggregate's loss
// model. It panics on an invalid window spec or a non-positive Theta.
func NewAQKSlack(cfg Config) *AQKSlack {
	if err := cfg.Spec.Validate(); err != nil {
		panic(err)
	}
	if cfg.Theta <= 0 {
		panic("core: Theta must be positive")
	}
	cfg = cfg.withDefaults()
	est := NewEstimator(cfg.Spec, cfg.Agg, cfg.Estimator)
	return newHandler(cfg, est, lossModel{})
}

// newHandler returns the handler of both constructors, with cfg's defaults
// filled.
func newHandler(cfg Config, est *Estimator, model qualityModel) *AQKSlack {
	return &AQKSlack{cfg: cfg, buf: buffer.NewKSlack(0), est: est, model: model, pi: cfg.PI, mode: cfg.Mode, realized: &ewmaOrZero{}}
}

// Insert implements buffer.Handler: InsertRun of the one item, then the
// adaptation it leaves due, with no realized error to trim by (see AQKSlack).
func (a *AQKSlack) Insert(it stream.Item, out []stream.Tuple) []stream.Tuple {
	var end [1]int
	out, _, _ = a.InsertRun([]stream.Item{it}, out, end[:0])
	a.Feedback(nil)
	return out
}

// InsertRun inserts items from the front of items into the K-slack, in one
// batch, up to the one after which an adaptation falls due — the period has
// elapsed on the stream clock and the estimator is warm — or all of them,
// and reports whether it stopped there. Released tuples and ends follow
// buffer.BatchHandler.InsertBatch, so len(ends) grows by the items taken.
// The due adaptation runs at the next Feedback, which must come before the
// next InsertRun: its caller first hands the released run to the window
// operator whose reports Feedback takes.
func (a *AQKSlack) InsertRun(items []stream.Item, out []stream.Tuple, ends []int) ([]stream.Tuple, []int, bool) {
	// The stream clock the K-slack will have after each item, to measure
	// each tuple's lateness against and to find the due item, is the
	// running maximum of event times and watermarks; the K-slack starts it
	// at the first item, as the adaptation period does.
	clock, first := a.buf.Clock(), a.buf.Stats().Inserted == 0
	n, due := len(items), false
	for i := range items {
		it := &items[i]
		at := it.Watermark
		if !it.Heartbeat {
			at = it.Tuple.TS
			late := clock - at
			if first {
				late, first = 0, false
			}
			a.est.ObserveTuple(float64(late), it.Tuple.Value)
		}
		if !a.adaptInit {
			clock, a.adaptInit, a.lastAdapt = at, true, at
			continue
		}
		clock = max(clock, at)
		if clock-a.lastAdapt >= a.cfg.AdaptEvery && a.est.Observations() >= a.cfg.WarmupTuples {
			n, due = i+1, true
			break
		}
	}
	out, ends = a.buf.InsertBatch(items[:n], out, ends)
	a.due = due
	return out, ends, due
}

// FeedbackHorizon is how long past its end a window's stragglers still count
// towards its realized error: the operator reports a window (Feedback) once
// its clock is this far past the window's end.
func (a *AQKSlack) FeedbackHorizon() stream.Time { return a.cfg.FeedbackHorizon }

// Feedback takes what the query's operator reported, in the order it
// reported it, into the realized error (see qualityModel), then runs the
// adaptation InsertRun left due, if any.
func (a *AQKSlack) Feedback(fs []window.Final) {
	a.model.feedback(a, fs)
	if a.due {
		a.due = false
		a.adapt()
	}
}

// fold takes one report's realized error into the handler — the EWMA the
// feedback half trims on and the finalized count — and, when instrumented or
// traced, into the telemetry and one flight-recorder quality sample at
// stream time at for window (a join: report) win. Both models fold through
// it.
func (a *AQKSlack) fold(at stream.Time, win int64, err float64) {
	a.realized.add(err)
	a.qstats.FinalizedWins++
	if a.telem != nil {
		a.telem.Finalized.Inc()
		a.telem.RealizedErr.Set(a.realized.v)
	}
	a.tracer.QualitySample(int64(at), win, a.realized.v)
}

// Flush implements buffer.Handler.
func (a *AQKSlack) Flush(out []stream.Tuple) []stream.Tuple { return a.buf.Flush(out) }

// K implements buffer.Handler.
func (a *AQKSlack) K() stream.Time { return a.buf.K() }

// Len implements buffer.Handler.
func (a *AQKSlack) Len() int { return a.buf.Len() }

// Stats implements buffer.Handler.
func (a *AQKSlack) Stats() buffer.Stats { return a.buf.Stats() }

// String implements buffer.Handler.
func (a *AQKSlack) String() string {
	if m, ok := a.model.(recallModel); ok {
		return fmt.Sprintf("aq-join(recall=%g mode=%s K=%d)", m.recall, a.mode, a.K())
	}
	return fmt.Sprintf("aq-kslack(theta=%g mode=%s K=%d)", a.cfg.Theta, a.mode, a.K())
}

// Trace returns the adaptation trace, oldest first: one sample per
// adaptation step, the last traceCap of them.
func (a *AQKSlack) Trace() []KSample {
	if a.traceHead == 0 {
		return a.trace
	}
	return append(a.trace[a.traceHead:len(a.trace):len(a.trace)], a.trace[:a.traceHead]...)
}

func (a *AQKSlack) record(s KSample) {
	if len(a.trace) < traceCap {
		a.trace = append(a.trace, s)
		return
	}
	a.trace[a.traceHead] = s
	a.traceHead = (a.traceHead + 1) % traceCap
}

// TraceTo mirrors the controller's decisions into a flight recorder:
// every adaptation step becomes a KindKAdapt event (chosen slack +
// estimated error) and every finalized window's realized error a
// KindQuality sample, which also drives the tracer's quality-SLO
// watchdog when one is attached. The cq executors wire this up
// automatically for AggQuery.Trace; the declared bound θ is published
// for provenance. Safe to call with nil to detach.
func (a *AQKSlack) TraceTo(tr *tracez.Tracer) {
	a.tracer = tr
	tr.SetTheta(a.cfg.Theta)
}

// Quality returns cumulative quality-control counters.
func (a *AQKSlack) Quality() QualityStats {
	q := a.qstats
	q.RealizedErrEWMA = a.realized.v
	q.LastK = a.K()
	return q
}

// adapt runs one adaptation step, at the stream clock.
func (a *AQKSlack) adapt() {
	clock := a.buf.Clock()
	a.lastAdapt = clock
	target := a.cfg.Safety * a.cfg.Theta

	// Model half: smallest K whose predicted loss stays within the budget
	// that meets the target. The lateness sketch is read afresh every step.
	kModel := minSlack(a.est.lateness, a.model.budget(a, target), a.cfg.KMax,
		func(k stream.Time) float64 { return a.model.loss(a, k) })

	// Feedback half: multiplicative PI trim on realized error.
	factor := 1.0
	if a.realized.init && a.mode != ModeModelOnly {
		sig := (a.realized.v - target) / a.cfg.Theta
		factor = a.pi.Update(sig)
	}

	var k stream.Time
	switch a.mode {
	case ModeModelOnly:
		k = kModel
	case ModePIOnly, ModePOnly:
		// Pure feedback: scale the current slack (at least one slide so
		// the controller has something to scale).
		base := a.buf.K()
		if base < a.cfg.Spec.Slide {
			base = a.cfg.Spec.Slide
		}
		k = stream.Time(float64(base) * factor)
	default: // ModeHybrid
		base := float64(kModel)
		// A multiplicative trim cannot escape a model choice of zero: if
		// the model says "no buffering" but realized error exceeds the
		// target, grow from one slide instead.
		if factor > 1 && base < float64(a.cfg.Spec.Slide) {
			base = float64(a.cfg.Spec.Slide)
		}
		k = stream.Time(base * factor)
	}
	if k > a.cfg.KMax {
		k = a.cfg.KMax
	}
	if k < 0 {
		k = 0
	}
	a.buf.SetK(k)

	estErr := a.model.err(a, k)
	a.qstats.Adaptations++
	a.qstats.LastEstErr = estErr
	a.tracer.AdaptDecision(int64(clock), int64(k), estErr)
	a.record(KSample{
		At: clock, K: k, EstErr: estErr, RealizedErr: a.realized.v, PIFactor: factor,
	})
	if a.telem != nil {
		a.telem.Adaptations.Inc()
		a.telem.EstErr.Set(estErr)
		a.telem.PIFactor.Set(factor)
		if d := a.pi.Clamps() - a.lastClamps; d > 0 {
			a.telem.PIClamps.Add(float64(d))
			a.lastClamps = a.pi.Clamps()
		}
	}
}
