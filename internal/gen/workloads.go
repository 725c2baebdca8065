package gen

import (
	"repro/internal/delay"
	"repro/internal/stream"
)

// Canonical workloads used across experiments and examples. Parameters are
// chosen to be representative (sensor rates of ~1 kHz stream time, delays
// of tens to hundreds of ms, heavy-tailed tails) rather than tuned to any
// particular result.

// Workload returns the canonical workload of the given name — sensor,
// bursty, drift (a 4x step at mid-stream), stock or cdr — with n tuples and
// the seed; ok is false for any other name.
func Workload(name string, n int, seed uint64) (c Config, ok bool) {
	switch name {
	case "sensor":
		return Sensor(n, seed), true
	case "bursty":
		return SensorBursty(n, seed), true
	case "drift":
		return SensorDrift(n, stream.Time(n/2)*10, seed), true
	case "stock":
		return Stock(n, 100, seed), true
	case "cdr":
		return CDR(n, seed), true
	}
	return Config{}, false
}

// Sensor returns a sensor-reading workload: fixed 1-tuple-per-10ms event
// rate, diurnal sinusoid values with noise, and heavy-tailed (Pareto,
// alpha 1.8) transport delays with mean 500 time units — delays on the
// order of typical slides (seconds), the regime where disorder handling
// actually matters.
func Sensor(n int, seed uint64) Config {
	return Config{
		N:        n,
		Interval: 10,
		Values:   Sinusoid{Mean: 100, Amp: 20, Period: 60 * stream.Second, Noise: 5},
		Delays:   delay.ParetoWithMean(500, 1.8),
		Seed:     seed,
	}
}

// SensorBursty is Sensor with periodic 5x delay bursts (5 s of burst in
// every 60 s) — the adaptation stress test. The burst period exceeds the
// adaptive handlers' feedback horizon, so a well-tuned controller can
// relax between bursts instead of provisioning for them permanently.
func SensorBursty(n int, seed uint64) Config {
	c := Sensor(n, seed)
	c.Delays = delay.Burst{
		Base:     delay.ParetoWithMean(500, 1.8),
		Factor:   5,
		Period:   60 * stream.Second,
		BurstLen: 5 * stream.Second,
	}
	return c
}

// SensorDrift is Sensor whose mean delay steps up 4x at event time
// stepAt — used by the adaptation-trace experiment.
func SensorDrift(n int, stepAt stream.Time, seed uint64) Config {
	c := Sensor(n, seed)
	c.Delays = delay.Step{
		Before: delay.ParetoWithMean(500, 1.8),
		After:  delay.ParetoWithMean(2000, 1.8),
		At:     stepAt,
	}
	return c
}

// Stock returns a trade-tick workload: Poisson arrivals with a mean gap of
// 5 time units, reflected random-walk prices, exponential delays.
func Stock(n int, startPrice float64, seed uint64) Config {
	return Config{
		N:        n,
		Interval: 5,
		Poisson:  true,
		Values: &RandomWalk{
			Start: startPrice,
			Step:  0.25,
			Lo:    startPrice * 0.5,
			Hi:    startPrice * 1.5,
		},
		Delays: delay.Exponential{MeanD: 40},
		Seed:   seed,
	}
}

// CDR returns a call-detail-record workload: Poisson arrivals, heavy-tailed
// call durations as values, bimodal delays (fast path + slow path).
func CDR(n int, seed uint64) Config {
	return Config{
		N:        n,
		Interval: 20,
		Poisson:  true,
		Values:   ParetoValue{Xm: 30, Alpha: 1.8},
		Delays: delay.NewMixture(
			[]float64{0.95, 0.05},
			[]delay.Model{delay.Exponential{MeanD: 20}, delay.Exponential{MeanD: 400}},
		),
		NumKeys: 64,
		Seed:    seed,
	}
}
