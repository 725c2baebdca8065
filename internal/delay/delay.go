// Package delay models the network/transport delay that turns an in-order
// event stream into an out-of-order arrival stream.
//
// The original evaluation used proprietary production traces; this package
// is the substitute mandated by DESIGN.md: parameterized delay distributions
// (including the heavy-tailed and time-varying cases that stress adaptive
// disorder handling) that are sampled deterministically from a seeded RNG.
//
// All delays are expressed in stream-time units (the repository convention
// is milliseconds) and are always >= 0.
package delay

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Model generates a transport delay for a tuple with event time at.
// Implementations must return a non-negative delay and must be
// deterministic given the RNG state. The event time parameter lets
// time-varying models (Step, Ramp, Burst) change behaviour over the
// stream's lifetime.
type Model interface {
	// Delay returns the delay, in stream-time units, experienced by a
	// tuple whose event time is at.
	Delay(at int64, rng *stats.RNG) float64
	// Mean returns the analytic mean delay at time 0, where defined.
	// Experiments use it to match means across distributions.
	Mean() float64
	// String names the model with its parameters.
	String() string
}

// Zero is the no-delay model: arrival order equals event order.
type Zero struct{}

// Delay implements Model.
func (Zero) Delay(int64, *stats.RNG) float64 { return 0 }

// Mean implements Model.
func (Zero) Mean() float64 { return 0 }

func (Zero) String() string { return "zero" }

// Constant delays every tuple by exactly D. Disorder never occurs (order is
// preserved), making it the control case.
type Constant struct{ D float64 }

// Delay implements Model.
func (c Constant) Delay(int64, *stats.RNG) float64 { return c.D }

// Mean implements Model.
func (c Constant) Mean() float64 { return c.D }

func (c Constant) String() string { return fmt.Sprintf("constant(%g)", c.D) }

// Uniform draws delays uniformly from [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Delay implements Model.
func (u Uniform) Delay(_ int64, rng *stats.RNG) float64 {
	return rng.Float64Range(u.Lo, u.Hi)
}

// Mean implements Model.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("uniform(%g,%g)", u.Lo, u.Hi) }

// Exponential draws delays from an exponential distribution with the given
// mean — the classic memoryless network-delay model.
type Exponential struct{ MeanD float64 }

// Delay implements Model.
func (e Exponential) Delay(_ int64, rng *stats.RNG) float64 {
	return rng.ExpFloat64() * e.MeanD
}

// Mean implements Model.
func (e Exponential) Mean() float64 { return e.MeanD }

func (e Exponential) String() string { return fmt.Sprintf("exp(%g)", e.MeanD) }

// Normal draws delays from a normal distribution truncated at zero
// (negative samples are clamped to 0, which slightly raises the effective
// mean when Std is large relative to Mu).
type Normal struct{ Mu, Sigma float64 }

// Delay implements Model.
func (n Normal) Delay(_ int64, rng *stats.RNG) float64 {
	d := n.Mu + n.Sigma*rng.NormFloat64()
	if d < 0 {
		return 0
	}
	return d
}

// Mean implements Model. It reports the untruncated mean; for the
// parameterizations used in experiments (Mu >= 3*Sigma) truncation is
// negligible.
func (n Normal) Mean() float64 { return n.Mu }

func (n Normal) String() string { return fmt.Sprintf("normal(%g,%g)", n.Mu, n.Sigma) }

// Pareto draws delays from a Pareto (power-law) distribution with scale Xm
// (minimum delay) and shape Alpha. For Alpha <= 1 the mean is infinite,
// which is exactly the regime where conservative buffering explodes and
// quality-driven adaptation pays off; experiments mostly use Alpha in
// (1, 3].
type Pareto struct{ Xm, Alpha float64 }

// Delay implements Model.
func (p Pareto) Delay(_ int64, rng *stats.RNG) float64 {
	u := 1 - rng.Float64() // in (0, 1]
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Mean implements Model. It returns +Inf when Alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

func (p Pareto) String() string { return fmt.Sprintf("pareto(xm=%g,a=%g)", p.Xm, p.Alpha) }

// ParetoWithMean returns a Pareto model with the given shape whose analytic
// mean equals mean. It panics if alpha <= 1 (infinite-mean regime cannot be
// matched).
func ParetoWithMean(mean, alpha float64) Pareto {
	if alpha <= 1 {
		panic("delay: cannot match mean with alpha <= 1")
	}
	return Pareto{Xm: mean * (alpha - 1) / alpha, Alpha: alpha}
}

// Gamma draws delays from a Gamma distribution with the given shape K and
// scale Theta, a common fit for end-to-end latencies composed of several
// queueing stages. Sampling uses the Marsaglia–Tsang method.
type Gamma struct{ K, Theta float64 }

// Delay implements Model.
func (g Gamma) Delay(_ int64, rng *stats.RNG) float64 {
	return sampleGamma(g.K, rng) * g.Theta
}

// Mean implements Model.
func (g Gamma) Mean() float64 { return g.K * g.Theta }

func (g Gamma) String() string { return fmt.Sprintf("gamma(k=%g,theta=%g)", g.K, g.Theta) }

// sampleGamma draws from Gamma(k, 1) via Marsaglia & Tsang (2000), with the
// standard boost for k < 1.
func sampleGamma(k float64, rng *stats.RNG) float64 {
	if k < 1 {
		// Gamma(k) = Gamma(k+1) * U^(1/k)
		u := 1 - rng.Float64()
		return sampleGamma(k+1, rng) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := 1 - rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Mixture draws from one of several component models, chosen with the given
// weights. It models bimodal networks (e.g. a fast path plus an occasional
// slow retransmission path).
type Mixture struct {
	Weights []float64
	Models  []Model
	total   float64
}

// NewMixture builds a mixture model. It panics on mismatched lengths,
// empty input, or non-positive total weight.
func NewMixture(weights []float64, models []Model) *Mixture {
	if len(weights) == 0 || len(weights) != len(models) {
		panic("delay: mixture needs equal, non-empty weights and models")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("delay: negative mixture weight")
		}
		total += w
	}
	if total <= 0 {
		panic("delay: mixture total weight must be positive")
	}
	return &Mixture{Weights: weights, Models: models, total: total}
}

// Delay implements Model.
func (m *Mixture) Delay(at int64, rng *stats.RNG) float64 {
	u := rng.Float64() * m.total
	for i, w := range m.Weights {
		if u < w || i == len(m.Weights)-1 {
			return m.Models[i].Delay(at, rng)
		}
		u -= w
	}
	return 0 // unreachable
}

// Mean implements Model.
func (m *Mixture) Mean() float64 {
	var mean float64
	for i, w := range m.Weights {
		mean += w / m.total * m.Models[i].Mean()
	}
	return mean
}

func (m *Mixture) String() string { return fmt.Sprintf("mixture(%d components)", len(m.Models)) }

// Step switches from the Before model to the After model at event time At.
// It reproduces a sudden network-condition change (route flap, failover).
type Step struct {
	Before, After Model
	At            int64
}

// Delay implements Model.
func (s Step) Delay(at int64, rng *stats.RNG) float64 {
	if at < s.At {
		return s.Before.Delay(at, rng)
	}
	return s.After.Delay(at, rng)
}

// Mean implements Model (the Before mean, per the time-0 convention).
func (s Step) Mean() float64 { return s.Before.Mean() }

func (s Step) String() string {
	return fmt.Sprintf("step(%v -> %v @%d)", s.Before, s.After, s.At)
}

// Ramp scales the Base model's delay by a factor that moves linearly from
// 1 to Factor between event times Start and End, modelling gradual
// congestion build-up.
type Ramp struct {
	Base       Model
	Factor     float64
	Start, End int64
}

// Delay implements Model.
func (r Ramp) Delay(at int64, rng *stats.RNG) float64 {
	f := 1.0
	switch {
	case at >= r.End:
		f = r.Factor
	case at > r.Start:
		frac := float64(at-r.Start) / float64(r.End-r.Start)
		f = 1 + (r.Factor-1)*frac
	}
	return r.Base.Delay(at, rng) * f
}

// Mean implements Model (the unscaled mean, per the time-0 convention).
func (r Ramp) Mean() float64 { return r.Base.Mean() }

func (r Ramp) String() string {
	return fmt.Sprintf("ramp(%v x%g over [%d,%d])", r.Base, r.Factor, r.Start, r.End)
}

// Burst multiplies the Base model's delay by Factor during periodic bursts:
// within each Period-long cycle, the first BurstLen time units are bursty.
// It models periodic congestion (e.g. batch jobs sharing the link).
type Burst struct {
	Base     Model
	Factor   float64
	Period   int64
	BurstLen int64
	Phase    int64
}

// Delay implements Model.
func (b Burst) Delay(at int64, rng *stats.RNG) float64 {
	d := b.Base.Delay(at, rng)
	if b.Period <= 0 {
		return d
	}
	pos := (at + b.Phase) % b.Period
	if pos < 0 {
		pos += b.Period
	}
	if pos < b.BurstLen {
		return d * b.Factor
	}
	return d
}

// Mean implements Model: the time-averaged mean over one period.
func (b Burst) Mean() float64 {
	if b.Period <= 0 {
		return b.Base.Mean()
	}
	fracBurst := float64(b.BurstLen) / float64(b.Period)
	return b.Base.Mean() * (fracBurst*b.Factor + (1 - fracBurst))
}

func (b Burst) String() string {
	return fmt.Sprintf("burst(%v x%g %d/%d)", b.Base, b.Factor, b.BurstLen, b.Period)
}

// Scaled multiplies a base model's delays by a constant factor.
type Scaled struct {
	Base   Model
	Factor float64
}

// Delay implements Model.
func (s Scaled) Delay(at int64, rng *stats.RNG) float64 {
	return s.Base.Delay(at, rng) * s.Factor
}

// Mean implements Model.
func (s Scaled) Mean() float64 { return s.Base.Mean() * s.Factor }

func (s Scaled) String() string { return fmt.Sprintf("scaled(%v x%g)", s.Base, s.Factor) }
