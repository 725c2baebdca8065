package cq

import (
	"math"

	"repro/internal/fanout"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/window"
)

// Telemetry bundles the obs instruments RunConcurrent updates while the
// pipeline runs: per-stage throughput counters, shed accounting, ingest
// batch sizes and the emission-latency histogram (the ingest queue's own
// gauges are the ring's: see fanoutGauges). All methods tolerate a nil
// receiver, so the engine's hot path pays a single pointer check when
// telemetry is off.
//
// The synchronous Run executor is deliberately uninstrumented: it is the
// deterministic harness path, and its AggReport already carries every
// cumulative number post hoc.
type Telemetry struct {
	SourceIn   *obs.Counter // data tuples accepted by the source stage
	Heartbeats *obs.Counter // progress signals forwarded
	Shed       *obs.Counter // data tuples lost to ring laps (a ShedOldest subscription)
	Released   *obs.Counter // tuples released by the disorder stage
	Results    *obs.Counter // window results emitted

	IngestBatch *obs.Histogram // sizes of the ring batches handed to the step core
	EmitLatency *obs.Histogram // result latency (stream-time ms)

	// reg and query are retained so the engine can register the ring's
	// gauges once the subscription exists (at RunConcurrent time).
	reg   *obs.Registry
	query obs.Label
}

// LatencyBucketsFor derives emission-latency histogram buckets from the
// query's window geometry. Emission latency is bounded below by how
// often results can appear (the slide) and in a healthy pipeline rarely
// exceeds a few window lengths of slack, so a fixed generic ladder
// either lumps everything into one bucket (long windows) or wastes
// every bucket above the first (short ones). The ladder is geometric:
// 20 buckets from slide/8 (min 1 stream-time unit) up to at least
// 4×size, so both the sub-slide fast path and pathological stragglers
// resolve.
func LatencyBucketsFor(spec window.Spec) []float64 {
	lo := float64(spec.Slide) / 8
	if lo < 1 {
		lo = 1
	}
	hi := 4 * float64(spec.Size)
	if hi < 16*lo {
		hi = 16 * lo
	}
	const n = 20
	factor := math.Pow(hi/lo, 1/float64(n-1))
	buckets := make([]float64, n)
	v := lo
	for i := range buckets {
		buckets[i] = v
		v *= factor
	}
	buckets[n-1] = hi // pin the top of the ladder against rounding drift
	return buckets
}

// NewTelemetry registers the engine's pipeline metrics under the aq_
// namespace, labelled with the query name, and returns the handle to
// pass to AggQuery.Instrument. Registering the same query twice returns
// instruments backed by the same series. The emission-latency histogram
// buckets are derived from spec via LatencyBucketsFor, so the histogram
// resolves around the query's own window geometry.
func NewTelemetry(reg *obs.Registry, query string, spec window.Spec) *Telemetry {
	q := obs.L("query", query)
	stage := func(s string) []obs.Label { return []obs.Label{q, obs.L("stage", s)} }
	return &Telemetry{
		SourceIn: reg.Counter("aq_stage_tuples_total",
			"Tuples passed downstream by each pipeline stage.", stage("source")...),
		Released: reg.Counter("aq_stage_tuples_total",
			"Tuples passed downstream by each pipeline stage.", stage("disorder")...),
		Results: reg.Counter("aq_stage_tuples_total",
			"Tuples passed downstream by each pipeline stage.", stage("window")...),
		Heartbeats: reg.Counter("aq_heartbeats_total",
			"Heartbeat (watermark) items forwarded through the pipeline.", q),
		Shed: reg.Counter("aq_shed_tuples_total",
			"Data tuples lost to this query: fan-out ring laps (a ShedOldest subscription).", q),
		IngestBatch: reg.Histogram("aq_batch_size_tuples",
			"Sizes of the batches shipped between pipeline stages.",
			obs.ExponentialBuckets(1, 2, 11), q, obs.L("queue", "ingest")),
		EmitLatency: reg.Histogram("aq_emit_latency_ms",
			"Window result emission latency in stream-time ms (emission position minus window end).",
			LatencyBucketsFor(spec), q),
		reg:   reg,
		query: q,
	}
}

// fanoutGauges registers the shared-source ring gauges for this query:
// per-consumer lag in published batches (aq_fanout_lag_batches) and the
// ring backlog as aq_queue_depth (queue="fanout") — the ring is the ingest
// queue, private or shared, so this is what queue-depth dashboards (the
// OBSERVABILITY.md delay-spike walkthrough) read. Re-registration replaces
// the callbacks, so a restarted query re-claims its series.
func (t *Telemetry) fanoutGauges(sub *fanout.Sub) {
	if t == nil || t.reg == nil {
		return
	}
	t.reg.GaugeFunc("aq_fanout_lag_batches",
		"Published fan-out ring batches the query has not yet released.",
		func() float64 { return float64(sub.Lag()) }, t.query)
	t.reg.GaugeFunc("aq_queue_depth",
		"Occupancy of a pipeline channel.",
		func() float64 { return float64(sub.Pending()) }, t.query, obs.L("queue", "fanout"))
}

// noteBatch records one ring batch handed to the step core: its size and its
// data/heartbeat split.
func (t *Telemetry) noteBatch(items []stream.Item) {
	if t == nil {
		return
	}
	heartbeats := 0
	for _, it := range items {
		if it.Heartbeat {
			heartbeats++
		}
	}
	t.Heartbeats.Add(float64(heartbeats))
	t.SourceIn.Add(float64(len(items) - heartbeats))
	t.IngestBatch.Observe(float64(len(items)))
}

// noteShed records n tuples the ring lapped past this query.
func (t *Telemetry) noteShed(n int64) {
	if t == nil {
		return
	}
	t.Shed.Add(float64(n))
}

// noteReleased records n tuples released by the disorder handler.
func (t *Telemetry) noteReleased(n int) {
	if t == nil || n == 0 {
		return
	}
	t.Released.Add(float64(n))
}

// noteResult records one emitted window result. Latency is observed only
// for progress-emitted results; flush-forced boundary emissions carry
// artificial latencies and are excluded, mirroring AggReport.Latency.
func (t *Telemetry) noteResult(r window.Result, flushed bool) {
	if t == nil {
		return
	}
	t.Results.Inc()
	if !flushed {
		t.EmitLatency.Observe(float64(r.Latency()))
	}
}
