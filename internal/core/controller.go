package core

import "fmt"

// PI is a proportional–integral controller on the normalized quality
// deviation. Its output is a multiplicative correction factor applied to
// the model-chosen slack: factor > 1 grows the buffer (quality was worse
// than the target), factor < 1 shrinks it.
//
// The error signal is normalized by the quality bound θ, so gains are
// dimensionless and one tuning works across thetas:
//
//	sig(t)    = (realizedErr − target) / θ
//	factor(t) = clamp(1 + Kp·sig(t) + Ki·∫sig, [MinFactor, MaxFactor])
//
// Integral anti-windup clamps the accumulated term so a long period at the
// bound cannot wind the controller far beyond the output clamp.
type PI struct {
	Kp, Ki               float64
	MinFactor, MaxFactor float64
	integral             float64
	clamps               int64
}

// ownPI returns a handler's own controller, with the gentle gains every
// handler runs: Kp 0.2, Ki 0.02, factor clamp [0.5, 2]. Gentle, because the adaptive handlers' feedback — realized error
// a FeedbackHorizon late, a nearly binary miss or late-drop count — makes
// aggressive gains oscillate between their clamps instead of settling.
func ownPI() *PI { return &PI{Kp: 0.2, Ki: 0.02, MinFactor: 0.5, MaxFactor: 2} }

// Update advances the controller with one normalized deviation sample and
// returns the correction factor. sig > 0 means measured quality violated
// the target.
func (c *PI) Update(sig float64) float64 {
	c.integral += sig
	// Anti-windup: the integral may not push the factor beyond its clamp
	// on its own.
	if c.Ki > 0 {
		maxI := (c.MaxFactor - 1) / c.Ki
		minI := (c.MinFactor - 1) / c.Ki
		if c.integral > maxI {
			c.integral = maxI
		}
		if c.integral < minI {
			c.integral = minI
		}
	}
	f := 1 + c.Kp*sig + c.Ki*c.integral
	if f < c.MinFactor || f > c.MaxFactor {
		c.clamps++
	}
	if f < c.MinFactor {
		f = c.MinFactor
	}
	if f > c.MaxFactor {
		f = c.MaxFactor
	}
	return f
}

// Clamps counts updates whose output hit the [MinFactor, MaxFactor]
// clamp — a controller pinned at its clamp is either still converging or
// mis-tuned, which makes this worth alerting on.
func (c *PI) Clamps() int64 { return c.clamps }

// String renders the gains.
func (c *PI) String() string {
	return fmt.Sprintf("pi{kp=%g ki=%g clamp=[%g,%g]}", c.Kp, c.Ki, c.MinFactor, c.MaxFactor)
}
