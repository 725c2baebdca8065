package core

import (
	"hash"
	"hash/fnv"
	"math"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/stream"
	"repro/internal/window"
)

// The adaptive controllers' decisions are pinned to hashes recorded on the
// commit before their hot paths — the loss-curve refresh, the sketch flush,
// the slack search — were made cheap (TestControllerDecisionsPinned, in
// pinned_exec_test.go). Those rewrites promised not to change one bit of any
// decision; a hash over every decision is how that promise is kept. A
// deliberate behaviour change re-records the constants and says so.

// pinnedN tuples of the drift stream feed every pinned controller run:
// 600 s of stream time, ~600 adaptations and ~75 loss-curve refreshes.
const pinnedN = 60_000

// driftTuples is aqbench's adaptive_drift input (sensorDrift in
// bench/aqbench/workloads.go): Pareto delays whose mean steps from 200 to
// 600 at mid-stream, with 5× bursts for 5 % of every twentieth of it.
func driftTuples(n int, seed uint64) []stream.Tuple {
	c := gen.Sensor(n, seed)
	span := stream.Time(n) * c.Interval
	burst := func(base delay.Model) delay.Model {
		return delay.Burst{Base: base, Factor: 5, Period: span / 20, BurstLen: span / 400}
	}
	c.Delays = delay.Step{
		Before: burst(delay.ParetoWithMean(200, 1.8)),
		After:  burst(delay.ParetoWithMean(600, 1.8)),
		At:     span / 2,
	}
	return c.Arrivals()
}

// DriftTuples, PinnedN and PinnedSpec export the pinned input to the
// external test package (pinned_exec_test.go, which imports cq), and
// SkewedEstimator and CurveErrs the loss-curve probes.
var (
	DriftTuples     = driftTuples
	PinnedSpec      = pinnedSpec
	SkewedEstimator = skewedEstimator
)

const PinnedN = pinnedN

// CurveErrs is the estimator's loss curve.
func CurveErrs(e *Estimator) []float64 { return e.LossCurve().errs }

// PinHash is an FNV-1a hash over the bits of controller decisions.
type PinHash struct{ h hash.Hash64 }

func NewPinHash() *PinHash { return &PinHash{h: fnv.New64a()} }

func (p *PinHash) U64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		p.h.Write(b[:])
	}
}

func (p *PinHash) F64(vs ...float64) {
	for _, v := range vs {
		p.U64(math.Float64bits(v))
	}
}

// Samples hashes every trace sample's decision: slack, estimated and
// realized error, PI factor.
func (p *PinHash) Samples(tr []KSample) {
	for _, s := range tr {
		p.U64(uint64(s.At), uint64(s.K))
		p.F64(s.EstErr, s.RealizedErr, s.PIFactor)
	}
}

// Released hashes a release sequence: order, identity and value.
func (p *PinHash) Released(ts []stream.Tuple) {
	for _, t := range ts {
		p.U64(uint64(t.TS), t.Seq)
		p.F64(t.Value)
	}
}

func (p *PinHash) Sum() uint64 { return p.h.Sum64() }

func pinnedSpec() window.Spec {
	return window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
}
