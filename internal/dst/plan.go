package dst

import (
	"fmt"
	"time"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/resilience"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// Plan is one fully-specified simulation: workload, delay distribution,
// fault plan and engine shape, all derived from (or shrunk relative to) a
// single seed. A Plan is a pure value — executing it twice yields
// byte-identical transcripts and outputs — and is JSON-serializable so
// shrunk failures can be committed to testdata/ and replayed.
type Plan struct {
	Seed uint64 `json:"seed"`

	// Workload.
	N        int         `json:"n"`
	Interval stream.Time `json:"interval"`
	Poisson  bool        `json:"poisson,omitempty"`
	NumKeys  int         `json:"num_keys,omitempty"` // <=1 means ungrouped
	// Values is the payload generator kind. DST workloads use integer
	// payloads ("uniform-int", "constant") so that aggregate sums are
	// exact in float64 and output comparisons can demand bit equality
	// without tripping over float reassociation.
	Values string `json:"values"`

	// Delay distribution.
	Delay DelayPlan `json:"delay"`

	// Heartbeat interval in arrival time (0 = no heartbeats).
	Heartbeat stream.Time `json:"heartbeat,omitempty"`

	// Query shape.
	Window  stream.Time `json:"window"`
	Slide   stream.Time `json:"slide"`
	Agg     string      `json:"agg"`              // sum | count | avg | max | median | distinct
	Refine  stream.Time `json:"refine,omitempty"` // >0: RefineLate horizon
	Handler HandlerPlan `json:"handler"`

	// Engine shape.
	Batch int `json:"batch"`

	// Fault plan. Sheds are deliberately impossible (DST plans never set
	// an overload policy): shedding decisions depend on live queue depth,
	// the one schedule-dependent behaviour in the engine, and would break
	// seed-reproducibility.
	Chaos ChaosPlan `json:"chaos"`

	// Fanout, when >1, adds the shared-source contract: the transcript is
	// pumped once through a fanout.Broadcast and Fanout replica queries of
	// the plan's shape must each reproduce the synchronous run byte for
	// byte. Subscriptions are Block — the lossless policy — because DST
	// plans never shed (see Chaos above).
	Fanout int `json:"fanout,omitempty"`

	// Net, when set, adds the wire-transport contract: the transcript is
	// replayed through the netstream line protocol over an in-memory
	// net.Pipe and the decoded sequence must digest — and aggregate —
	// identically to the direct feed (see net.go).
	Net bool `json:"net,omitempty"`
}

// DelayPlan selects a delay model by name so plans stay serializable.
type DelayPlan struct {
	Kind string  `json:"kind"` // zero | constant | exp | normal | pareto | burst | step
	Mean float64 `json:"mean,omitempty"`
}

// Model materializes the delay model.
func (d DelayPlan) Model() delay.Model {
	switch d.Kind {
	case "zero", "":
		return delay.Zero{}
	case "constant":
		return delay.Constant{D: d.Mean}
	case "exp":
		return delay.Exponential{MeanD: d.Mean}
	case "normal":
		return delay.Normal{Mu: d.Mean, Sigma: d.Mean / 4}
	case "pareto":
		return delay.ParetoWithMean(d.Mean, 1.8)
	case "burst":
		return delay.Burst{
			Base:     delay.Exponential{MeanD: d.Mean},
			Factor:   5,
			Period:   30 * stream.Second,
			BurstLen: 3 * stream.Second,
		}
	case "step":
		return delay.Step{
			Before: delay.Exponential{MeanD: d.Mean},
			After:  delay.Exponential{MeanD: 3 * d.Mean},
			At:     20 * stream.Second,
		}
	default:
		panic(fmt.Sprintf("dst: unknown delay kind %q", d.Kind))
	}
}

// HandlerPlan selects the disorder handler.
type HandlerPlan struct {
	Kind  string      `json:"kind"`            // kslack | maxslack | aq
	K     stream.Time `json:"k,omitempty"`     // kslack
	Theta float64     `json:"theta,omitempty"` // aq
}

// ChaosPlan is the serializable subset of resilience.Chaos a DST plan may
// enable. Stall durations are virtual time (served by the Scheduler).
type ChaosPlan struct {
	ErrRate   float64 `json:"err_rate,omitempty"`
	StallRate float64 `json:"stall_rate,omitempty"`
	StallMS   int     `json:"stall_ms,omitempty"`
	DupRate   float64 `json:"dup_rate,omitempty"`
	SpikeRate float64 `json:"spike_rate,omitempty"`
	SpikeLen  int     `json:"spike_len,omitempty"`
	CutAfter  int64   `json:"cut_after,omitempty"`
}

// enabled reports whether any fault is configured.
func (c ChaosPlan) enabled() bool {
	return c.ErrRate > 0 || c.StallRate > 0 || c.DupRate > 0 || c.SpikeRate > 0 || c.CutAfter > 0
}

// chaos materializes the resilience config; the fault RNG is seeded from
// the plan seed so the schedule replays.
func (p Plan) chaos() resilience.Chaos {
	return resilience.Chaos{
		Seed:      p.Seed ^ 0x9e3779b97f4a7c15, // decorrelate from the workload RNG
		ErrorRate: p.Chaos.ErrRate,
		StallRate: p.Chaos.StallRate,
		StallDur:  time.Duration(p.Chaos.StallMS) * time.Millisecond,
		DupRate:   p.Chaos.DupRate,
		SpikeRate: p.Chaos.SpikeRate,
		SpikeLen:  p.Chaos.SpikeLen,
		CutAfter:  p.Chaos.CutAfter,
	}
}

// spec returns the window spec.
func (p Plan) spec() window.Spec { return window.Spec{Size: p.Window, Slide: p.Slide} }

// agg materializes the aggregate factory.
func (p Plan) agg() window.Factory {
	switch p.Agg {
	case "count":
		return window.Count()
	case "avg":
		return window.Avg()
	case "max":
		return window.Max()
	case "median":
		return window.Median()
	case "distinct":
		return window.Distinct()
	default:
		return window.Sum()
	}
}

// grouped reports whether the plan runs a GROUP BY query.
func (p Plan) grouped() bool { return p.NumKeys > 1 }

// qualityChecked reports whether the plan carries the θ quality
// contract: the adaptive handler, grouped or not — its realized error is
// the query's own operator's, per (key, window) under GROUP BY — under a
// stationary delay distribution. Non-stationary models (step, burst)
// shift the delay regime faster than the feedback loop tracks it — the
// adaptation-lag transient the paper itself reports — so those plans
// exercise the engine without asserting the bound.
func (p Plan) qualityChecked() bool {
	if p.Handler.Kind != "aq" {
		return false
	}
	switch p.Delay.Kind {
	case "step", "burst":
		return false
	}
	return true
}

// values materializes the payload generator. All kinds yield integers.
func (p Plan) values() gen.ValueGen {
	switch p.Values {
	case "constant":
		return gen.ConstantValue{V: 1}
	default:
		return intValues{Lo: 0, Hi: 100}
	}
}

// intValues yields uniform integer-valued payloads in [Lo, Hi) — exact in
// float64, so sums are associative and byte comparisons are meaningful.
type intValues struct{ Lo, Hi int }

// Value implements gen.ValueGen.
func (g intValues) Value(_ int, _ stream.Time, rng *stats.RNG) float64 {
	return float64(g.Lo + rng.Intn(g.Hi-g.Lo))
}

// genConfig materializes the workload generator.
func (p Plan) genConfig() gen.Config {
	return gen.Config{
		N:        p.N,
		Interval: p.Interval,
		Poisson:  p.Poisson,
		Values:   p.values(),
		Delays:   p.Delay.Model(),
		NumKeys:  p.NumKeys,
		Seed:     p.Seed,
	}
}

// String summarizes the plan for test logs.
func (p Plan) String() string {
	h := p.Handler.Kind
	if h == "aq" {
		h = fmt.Sprintf("aq(θ=%g)", p.Handler.Theta)
	} else if h == "kslack" {
		h = fmt.Sprintf("kslack(%d)", p.Handler.K)
	}
	return fmt.Sprintf("plan{seed=%d n=%d keys=%d delay=%s/%g hb=%d win=%d/%d agg=%s refine=%d h=%s batch=%d fanout=%d net=%t chaos=%+v}",
		p.Seed, p.N, p.NumKeys, p.Delay.Kind, p.Delay.Mean, p.Heartbeat,
		p.Window, p.Slide, p.Agg, p.Refine, h, p.Batch, p.Fanout, p.Net, p.Chaos)
}

// PlanForSeed derives one point of the sweep matrix from a seed. Every
// dimension — workload size and pacing, delay distribution, keys, window
// shape, aggregate, handler, transport batch, fault plan —
// is drawn from a dedicated RNG, so the matrix is dense, reproducible and
// grows no test-source table.
func PlanForSeed(seed uint64) Plan {
	rng := stats.NewRNG(seed*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03)
	p := Plan{
		Seed:     seed,
		N:        3000 + rng.Intn(5000),
		Interval: []stream.Time{5, 10, 20}[rng.Intn(3)],
		Poisson:  rng.Float64() < 0.5,
		Values:   []string{"uniform-int", "uniform-int", "constant"}[rng.Intn(3)],
	}

	p.Delay.Kind = []string{"zero", "constant", "exp", "normal", "pareto", "burst", "step"}[rng.Intn(7)]
	if p.Delay.Kind != "zero" {
		p.Delay.Mean = []float64{100, 500, 2000}[rng.Intn(3)]
	}

	if rng.Float64() < 0.5 {
		p.NumKeys = []int{8, 32, 64}[rng.Intn(3)]
	}
	if rng.Float64() < 0.5 {
		p.Heartbeat = []stream.Time{stream.Second, 5 * stream.Second}[rng.Intn(2)]
	}

	p.Window = []stream.Time{4 * stream.Second, 10 * stream.Second}[rng.Intn(2)]
	p.Slide = []stream.Time{500, stream.Second, 2 * stream.Second}[rng.Intn(3)]

	// Aggregates: the quality-checked (AQ, ungrouped) plans stay on the
	// additive aggregates the error model is built for; max joins the mix
	// for pure equivalence plans below.
	p.Agg = []string{"sum", "count", "avg"}[rng.Intn(3)]

	switch {
	case ! /* ungrouped */ (p.NumKeys > 1) && rng.Float64() < 0.65:
		p.Handler = HandlerPlan{Kind: "aq", Theta: []float64{0.01, 0.02, 0.05}[rng.Intn(3)]}
	case rng.Float64() < 0.2:
		p.Handler = HandlerPlan{Kind: "maxslack"}
	case rng.Float64() < 0.15 && p.NumKeys > 1:
		p.Handler = HandlerPlan{Kind: "aq", Theta: 0.05}
	default:
		p.Handler = HandlerPlan{Kind: "kslack", K: []stream.Time{100, 500, 2000}[rng.Intn(3)]}
	}
	if p.Handler.Kind != "aq" {
		if rng.Float64() < 0.5 {
			p.Agg = []string{"sum", "count", "avg", "max", "median", "distinct"}[rng.Intn(6)]
		}
		if rng.Float64() < 0.25 {
			p.Refine = 2 * p.Window
		}
	}

	p.Batch = []int{1, 7, 64, 256}[rng.Intn(4)]
	if p.NumKeys > 1 {
		// This draw used to pick a shard count for the grouped window stage.
		// There is one stage now, but the draw stays (discarded) so that
		// every later dimension of every seed is what it was.
		rng.Intn(4)
	}

	switch rng.Intn(7) {
	case 0, 1: // no faults
	case 2:
		p.Chaos.DupRate = 0.01
	case 3:
		p.Chaos.SpikeRate, p.Chaos.SpikeLen = 0.002, []int{16, 32}[rng.Intn(2)]
	case 4:
		p.Chaos.DupRate = 0.005
		p.Chaos.SpikeRate, p.Chaos.SpikeLen = 0.001, 32
		p.Chaos.ErrRate = 0.01
	case 5:
		p.Chaos.ErrRate = 0.02
		p.Chaos.StallRate, p.Chaos.StallMS = 0.005, 2
	case 6:
		p.Chaos.CutAfter = int64(p.N) * 3 / 4
	}

	// This draw used to pick between two aggregation cores. There is one
	// now, but the draw stays (discarded) so that Fanout and Net below — and
	// with them every plan a committed seed or transcript pins — do not move.
	_ = rng.Float64()

	// Fanout is appended after every earlier dimension for the same reason:
	// a new draw at the end leaves the plans earlier seeds pinned untouched.
	// Half the seeds exercise the shared-source ring.
	switch rng.Intn(4) {
	case 2:
		p.Fanout = 2
	case 3:
		p.Fanout = 8
	}

	// Net is drawn LAST (after Fanout) so committed transcripts from
	// every earlier sweep replay unchanged; roughly a third of the seeds
	// push their transcript through the wire protocol.
	p.Net = rng.Float64() < 0.35
	return p
}
