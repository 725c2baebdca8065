package exp

import (
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/window"
)

// Scale shrinks experiment workloads: tuple counts are multiplied by it
// (floored at 1000). 1 is full scale; benches use ~0.05–0.2.
type Scale float64

// N applies the scale to a full-size tuple count.
func (s Scale) N(full int) int {
	if s <= 0 || s > 1 {
		s = 1
	}
	n := int(float64(full) * float64(s))
	if n < 1000 {
		n = 1000
	}
	return n
}

// warmupWindows dropped from quality/latency metrics in every experiment:
// adaptive handlers need a calibration phase.
const warmupWindows = 20

// AggOutcome is the measured outcome of one (workload, handler) execution.
type AggOutcome struct {
	Name       string
	Quality    metrics.QualityReport
	Latency    metrics.LatencyReport
	Handler    buffer.Stats
	Op         window.OpStats
	Disorder   stream.DisorderStats
	Trace      []core.KSample // adaptive handlers only
	Quality2   core.QualityStats
	WallSecs   float64
	TuplesIn   int
	Throughput float64 // tuples per wall-clock second
}

// RunAgg executes one windowed-aggregate pipeline over the pre-generated
// arrival-ordered tuples and measures quality against the supplied oracle.
func RunAgg(name string, tuples []stream.Tuple, oracle []window.Result,
	spec window.Spec, agg window.Factory, h buffer.Handler, theta float64) AggOutcome {
	return RunAggSource(name, stream.FromTuples(tuples), len(tuples), oracle, spec, agg, h, theta)
}

// RunAggSource is RunAgg over an arbitrary item source (e.g. a stream with
// interleaved punctuations); n is the data-tuple count for throughput.
func RunAggSource(name string, src stream.Source, n int, oracle []window.Result,
	spec window.Spec, agg window.Factory, h buffer.Handler, theta float64) AggOutcome {

	start := time.Now()
	rep, err := cq.New(src).
		Handle(h).
		Window(spec, agg).
		Run()
	if err != nil {
		panic(err) // experiment configurations are static; a failure is a bug
	}
	wall := time.Since(start).Seconds()

	out := AggOutcome{
		Name: name,
		Quality: metrics.Compare(rep.Results, oracle, metrics.CompareOpts{
			Theta: theta, SkipWarmup: warmupWindows, SkipEmptyOracle: true,
		}),
		// rep.Latency excludes flush-forced boundary results, whose
		// "latency" reflects the end of the stream, not the handler.
		Latency:    rep.Latency(warmupWindows),
		Handler:    rep.Handler,
		Op:         rep.Op,
		Disorder:   rep.Disorder,
		WallSecs:   wall,
		TuplesIn:   n,
		Throughput: float64(n) / wall,
	}
	if aq, ok := h.(*core.AQKSlack); ok {
		out.Trace = aq.Trace()
		out.Quality2 = aq.Quality()
	}
	return out
}

// SteadyK returns the mean slack over the second half of an adaptation
// trace (0 when the handler is not adaptive or never adapted).
func SteadyK(trace []core.KSample) float64 {
	if len(trace) == 0 {
		return 0
	}
	half := trace[len(trace)/2:]
	var sum float64
	for _, s := range half {
		sum += float64(s.K)
	}
	return sum / float64(len(half))
}

// Baselines returns the standard comparison set of non-adaptive handlers
// used across experiments. Slacks are expressed in stream-time units.
func Baselines(slacks []stream.Time) map[string]func() buffer.Handler {
	out := map[string]func() buffer.Handler{
		"none":     func() buffer.Handler { return buffer.Zero() },
		"maxslack": func() buffer.Handler { return buffer.NewMaxSlack() },
		"wm-p95":   func() buffer.Handler { return buffer.NewPercentile(0.95, 500) },
	}
	for _, k := range slacks {
		k := k
		out["kslack-"+Ms(float64(k))] = func() buffer.Handler { return buffer.NewKSlack(k) }
	}
	return out
}

// JoinOutcome is the measured outcome of one join execution.
type JoinOutcome struct {
	Name     string
	Pairs    metrics.PairReport
	Measured join.Stats
	Handler  buffer.Stats
	MeanLat  float64
	SteadyK  float64
}

// RunJoin executes one band-join query behind h over pre-merged,
// arrival-ordered tuples (Src-tagged) and measures recall against the oracle
// pair set. An adaptive handler (core.NewAQJoin) is fed the join's realized
// recall by the query itself.
func RunJoin(name string, merged, left, right []stream.Tuple, jcfg join.Config, h buffer.Handler) JoinOutcome {
	// The join's sides are its tuples' Src: the merged stream is the left
	// source whole, in its own order of ties.
	rep, err := cq.NewJoin(stream.FromTuples(merged), stream.FromTuples(nil), jcfg).Handle(h).Run()
	if err != nil {
		panic(err) // experiment configurations are static; a failure is a bug
	}
	results := rep.Results

	out := JoinOutcome{
		Name:     name,
		Pairs:    metrics.PairMetrics(join.PairSet(results), join.OraclePairs(jcfg, left, right)),
		Measured: rep.Join,
		Handler:  rep.Handler,
	}
	if len(results) > 0 {
		var sum float64
		for _, r := range results {
			sum += float64(r.Latency())
		}
		out.MeanLat = sum / float64(len(results))
	}
	if aq, ok := h.(*core.AQKSlack); ok {
		out.SteadyK = SteadyK(aq.Trace())
	} else {
		out.SteadyK = float64(h.K())
	}
	return out
}
