package cq

import (
	"math"

	"repro/internal/fanout"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/window"
)

// Telemetry is the one set of per-query pipeline instruments: stage
// throughput, heartbeats, ring sheds, the disorder handler's stragglers,
// slack and depth, ingest batch sizes and the emission-latency histogram
// (the ring's own gauges are registered by RingGauges). The step core
// updates it whatever the driver — Run, the ring driver, cmd/aqserver's
// runner groups: Exec.Step counts each batch, the end of each step
// publishes the handler's activity, and every delivered result is counted
// and timed. All methods tolerate a nil receiver, so the hot path pays a
// single pointer check when telemetry is off.
type Telemetry struct {
	SourceIn   *obs.Counter // data tuples in the batches stepped
	Heartbeats *obs.Counter // heartbeat (watermark) items stepped
	Shed       *obs.Counter // data tuples lost to ring laps (a ShedOldest subscription)
	Released   *obs.Counter // tuples released by the disorder handler
	Stragglers *obs.Counter // released tuples that violated event-time order
	Results    *obs.Counter // window results emitted

	K     *obs.Gauge // the disorder handler's slack, stream-time ms
	Depth *obs.Gauge // tuples the disorder handler holds back

	IngestBatch *obs.Histogram // sizes of the batches handed to the step core
	EmitLatency *obs.Histogram // result latency (stream-time ms)

	// reg and query are retained for the ring's gauges (RingGauges), which
	// need the subscription the query is read through.
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
	lo := max(float64(spec.Slide)/8, 1)
	hi := max(4*float64(spec.Size), 16*lo)
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
			"Data tuples lost to this query to fan-out ring laps (a ShedOldest subscription).", q),
		Stragglers: reg.Counter("aq_buffer_stragglers_total",
			"Released tuples that violated event-time order.", q),
		K: reg.Gauge("aq_buffer_k_ms",
			"Current slack K of the disorder buffer, in stream-time ms.", q),
		Depth: reg.Gauge("aq_buffer_depth",
			"Tuples currently held back by the disorder buffer.", q),
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

// RingGauges registers the query's fan-out ring gauges over sub, the
// subscription its step core reads: the published batches it has not yet
// released (aq_fanout_lag_batches) and the ring backlog as aq_queue_depth
// (queue="fanout") — the ring is the ingest queue, private or shared, so
// this is what queue-depth dashboards (the OBSERVABILITY.md delay-spike
// walkthrough) read. Re-registration replaces the callbacks, so a restarted
// query re-claims its series.
func (t *Telemetry) RingGauges(sub *fanout.Sub) {
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

// noteBatch records one batch handed to the step core: its size and its
// data/heartbeat split.
func (t *Telemetry) noteBatch(n, heartbeats int) {
	if t == nil {
		return
	}
	t.Heartbeats.Add(float64(heartbeats))
	t.SourceIn.Add(float64(n - heartbeats))
	t.IngestBatch.Observe(float64(n))
}

// noteShed records n tuples the ring lapped past this query.
func (t *Telemetry) noteShed(n int64) {
	if t == nil {
		return
	}
	t.Shed.Add(float64(n))
}

// noteHandler records the disorder handler's activity since the last call —
// released tuples, and new stragglers among them — and its slack and depth
// now.
func (t *Telemetry) noteHandler(released int, stragglers int64, k stream.Time, depth int) {
	if t == nil {
		return
	}
	if released > 0 {
		t.Released.Add(float64(released))
	}
	if stragglers > 0 {
		t.Stragglers.Add(float64(stragglers))
	}
	t.K.Set(float64(k))
	t.Depth.Set(float64(depth))
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
