// Package gen produces synthetic out-of-order workloads: event streams with
// configurable inter-arrival processes and value distributions, pushed
// through a delay model from internal/delay to obtain the arrival order an
// operator observes.
//
// These generators stand in for the production data feeds the original
// evaluation used (see the substitution table in DESIGN.md): the disorder
// handlers only consume (event time, arrival time, value) triples, so
// synthetic streams with matched delay distributions exercise identical
// code paths.
package gen

import (
	"fmt"
	"math"

	"repro/internal/delay"
	"repro/internal/stats"
	"repro/internal/stream"
)

// ValueGen produces the payload value for the i-th tuple with event time ts.
type ValueGen interface {
	Value(i int, ts stream.Time, rng *stats.RNG) float64
}

// Config describes a synthetic stream.
type Config struct {
	N        int         // number of tuples
	Start    stream.Time // event time of the first tuple
	Interval stream.Time // mean event-time gap between consecutive tuples
	Poisson  bool        // exponential gaps (Poisson process) instead of fixed
	Values   ValueGen    // payload distribution; nil means constant 1
	Delays   delay.Model // transport delay; nil means delay.Zero
	NumKeys  int         // >1 assigns uniform random keys in [0, NumKeys)
	Seed     uint64      // RNG seed; streams with equal seeds are identical
}

func (c Config) withDefaults() Config {
	if c.Values == nil {
		c.Values = ConstantValue{V: 1}
	}
	if c.Delays == nil {
		c.Delays = delay.Zero{}
	}
	if c.Interval <= 0 {
		c.Interval = 1
	}
	return c
}

// Events generates the stream in event-time order. Each tuple's Arrival is
// already populated (TS + sampled delay), but the slice is ordered by TS.
func (c Config) Events() []stream.Tuple {
	c = c.withDefaults()
	rng := stats.NewRNG(c.Seed)
	ts := c.Start
	out := make([]stream.Tuple, c.N)
	for i := range out {
		if i > 0 {
			gap := c.Interval
			if c.Poisson {
				g := rng.ExpFloat64() * float64(c.Interval)
				gap = stream.Time(math.Round(g))
				if gap < 0 {
					gap = 0
				}
			}
			ts += gap
		}
		d := c.Delays.Delay(ts, rng)
		var key uint64
		if c.NumKeys > 1 {
			key = uint64(rng.Intn(c.NumKeys))
		}
		out[i] = stream.Tuple{
			TS:      ts,
			Arrival: ts + stream.Time(math.Round(d)),
			Seq:     uint64(i),
			Key:     key,
			Value:   c.Values.Value(i, ts, rng),
		}
	}
	return out
}

// Arrivals generates the stream in arrival order — the order an operator
// observes. Ties on arrival time keep event (sequence) order, matching a
// FIFO transport that delivers simultaneously arriving packets in send
// order.
func (c Config) Arrivals() []stream.Tuple {
	ts := c.Events()
	stream.SortByArrival(ts)
	return ts
}

// Source returns a pull source over the arrival-ordered stream.
func (c Config) Source() stream.Source {
	return stream.FromTuples(c.Arrivals())
}

// String summarizes the configuration.
func (c Config) String() string {
	c = c.withDefaults()
	proc := "fixed"
	if c.Poisson {
		proc = "poisson"
	}
	return fmt.Sprintf("gen{n=%d ival=%d(%s) delays=%v seed=%d}", c.N, c.Interval, proc, c.Delays, c.Seed)
}

// WithOracleWatermarks interleaves exact completeness punctuations into an
// arrival-ordered stream: every `every` tuples, a heartbeat is emitted
// whose watermark is the largest W such that no later-arriving tuple has
// an event timestamp <= W. A real source can only produce such
// punctuations when it knows its own delay bound; the generator knows the
// future (suffix minimum over remaining event timestamps), so this is the
// perfect-information input for the buffer.Punctuated baseline.
func WithOracleWatermarks(tuples []stream.Tuple, every int) []stream.Item {
	if every <= 0 {
		every = 1
	}
	// suffixMin[i] = min event timestamp among tuples[i:].
	suffixMin := make([]stream.Time, len(tuples)+1)
	suffixMin[len(tuples)] = math.MaxInt64
	for i := len(tuples) - 1; i >= 0; i-- {
		suffixMin[i] = tuples[i].TS
		if suffixMin[i+1] < suffixMin[i] {
			suffixMin[i] = suffixMin[i+1]
		}
	}
	var maxTS stream.Time
	for _, t := range tuples {
		if t.TS > maxTS {
			maxTS = t.TS
		}
	}
	out := make([]stream.Item, 0, len(tuples)+len(tuples)/every+1)
	for i, t := range tuples {
		out = append(out, stream.DataItem(t))
		switch {
		case i == len(tuples)-1:
			// Nothing follows: everything is complete.
			out = append(out, stream.HeartbeatItem(maxTS))
		case (i+1)%every == 0:
			if wm := suffixMin[i+1] - 1; wm >= 0 {
				out = append(out, stream.HeartbeatItem(wm))
			}
		}
	}
	return out
}

// ConstantValue always yields V.
type ConstantValue struct{ V float64 }

// Value implements ValueGen.
func (g ConstantValue) Value(int, stream.Time, *stats.RNG) float64 { return g.V }

// UniformValue yields uniform values in [Lo, Hi).
type UniformValue struct{ Lo, Hi float64 }

// Value implements ValueGen.
func (g UniformValue) Value(_ int, _ stream.Time, rng *stats.RNG) float64 {
	return rng.Float64Range(g.Lo, g.Hi)
}

// ParetoValue yields heavy-tailed positive values (e.g. transfer sizes,
// call durations).
type ParetoValue struct{ Xm, Alpha float64 }

// Value implements ValueGen.
func (g ParetoValue) Value(_ int, _ stream.Time, rng *stats.RNG) float64 {
	u := 1 - rng.Float64()
	return g.Xm / math.Pow(u, 1/g.Alpha)
}

// RandomWalk yields a bounded random walk starting at Start with steps
// uniform in [-Step, Step] — a crude but standard price/sensor model. The
// walk reflects at Lo and Hi when bounds are set (Lo < Hi).
type RandomWalk struct {
	Start  float64
	Step   float64
	Lo, Hi float64 // optional reflecting bounds; ignored unless Lo < Hi

	cur  float64
	init bool
}

// Value implements ValueGen. RandomWalk is stateful: use one instance per
// stream.
func (g *RandomWalk) Value(_ int, _ stream.Time, rng *stats.RNG) float64 {
	if !g.init {
		g.cur, g.init = g.Start, true
		return g.cur
	}
	g.cur += rng.Float64Range(-g.Step, g.Step)
	if g.Lo < g.Hi {
		if g.cur < g.Lo {
			g.cur = 2*g.Lo - g.cur
		}
		if g.cur > g.Hi {
			g.cur = 2*g.Hi - g.cur
		}
	}
	return g.cur
}

// Sinusoid yields Mean + Amp·sin(2π·ts/Period) + noise — the diurnal
// pattern typical of sensor and load metrics.
type Sinusoid struct {
	Mean, Amp float64
	Period    stream.Time
	Noise     float64
}

// Value implements ValueGen.
func (g Sinusoid) Value(_ int, ts stream.Time, rng *stats.RNG) float64 {
	v := g.Mean + g.Amp*math.Sin(2*math.Pi*float64(ts)/float64(g.Period))
	if g.Noise > 0 {
		v += g.Noise * rng.NormFloat64()
	}
	return v
}

// Spikes yields Base except that with probability P it yields Base*Factor —
// modelling rare outliers that dominate sums and maxima, the hard case for
// sampling-based error estimation.
type Spikes struct {
	Base   float64
	Factor float64
	P      float64
}

// Value implements ValueGen.
func (g Spikes) Value(_ int, _ stream.Time, rng *stats.RNG) float64 {
	if rng.Float64() < g.P {
		return g.Base * g.Factor
	}
	return g.Base
}
