package main

// Observability wiring: with -obs the server owns an obs.Registry,
// every query runner registers per-query instruments into it, and the
// HTTP mux gains /metrics (Prometheus text format) plus the standard
// net/http/pprof endpoints. docs/OBSERVABILITY.md catalogs the metrics.
//
// Two styles of instrument are used, on purpose:
//
//   - Push: the adaptive handler's controller metrics (core.Telemetry,
//     installed on the handler by buildRunner) and the emission-latency
//     histogram are updated on the runner's write path, which already
//     holds q.mu.
//   - Pull: everything that is a plain cumulative counter or a current
//     value guarded by q.mu (tuples in, sheds, retries, panics, buffer
//     depth, p95 latency, health) is exported as a CounterFunc/GaugeFunc
//     whose callback locks the runner at scrape time. The hot path pays
//     nothing for these.

import (
	"net/http"
	"net/http/pprof"

	"repro/internal/fanout"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// healthStates is the full per-query health vocabulary, exported as a
// one-hot gauge vector (aq_query_health{query,state} is 1 for the
// current state, 0 otherwise) so dashboards can plot state timelines.
var healthStates = []string{healthFeeding, healthDegraded, healthStalled, healthDraining, healthDone}

// instrument registers the runner's pull-side per-query metrics; called
// by newQueryRunner once the core exists. The push side is already in
// place by then: the adaptive handler's controller telemetry (buildRunner)
// and the emission-latency histogram filled by absorbOne.
func (q *queryRunner) instrument(reg *obs.Registry) {
	lbl := obs.L("query", q.name)

	// Quality-SLO verdicts: aq_quality_violation_total and
	// aq_time_in_violation_ms, pulled from the watchdog at scrape time.
	q.watchdog.Register(reg, q.name)

	// Pull side: cumulative counters owned by the runner.
	counter := func(name, help string, read func() int64) {
		reg.CounterFunc(name, help, func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return float64(read())
		}, lbl)
	}
	counter("aq_tuples_in_total", "Data tuples accepted into the query's pipeline.",
		func() int64 { return q.tuplesInLocked() })
	counter("aq_windows_emitted_total", "Window results emitted.",
		func() int64 { return q.emitted })
	counter("aq_shed_tuples_total",
		"Data tuples lost to this query: fan-out ring laps and ingest-quota sheds.",
		func() int64 { return q.shedTotal() })
	counter("aq_source_retries_total", "Source retry attempts spent by the retry policy.",
		func() int64 { return q.retries })
	counter("aq_stage_panics_total", "Panics isolated while processing items.",
		func() int64 { return q.panics })

	// Pull side: current values.
	gauge := func(name, help string, read func() float64) {
		reg.GaugeFunc(name, help, func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return read()
		}, lbl)
	}
	gauge("aq_buffer_k_ms", "Current slack K of the disorder buffer, in stream-time ms.",
		func() float64 { return float64(q.exec.Handler().K()) })
	gauge("aq_buffer_depth", "Tuples currently held back by the disorder buffer.",
		func() float64 { return float64(q.exec.Handler().Len()) })
	gauge("aq_latency_p95_ms", "Streaming p95 of result emission latency (stream-time ms).",
		func() float64 { return q.latency.Value() })
	gauge("aq_quality_realized_err_adjusted",
		"Realized relative-error EWMA with shed loss folded in (metrics.ShedAdjustedErr).",
		func() float64 {
			h := q.adaptive()
			if h == nil {
				return 0
			}
			return metrics.ShedAdjustedErr(h.Quality().RealizedErrEWMA, q.shedTotal(), q.tuplesInLocked())
		})
	for _, state := range healthStates {
		state := state
		reg.GaugeFunc("aq_query_health", "One-hot query health state (1 = query is in this state).",
			func() float64 {
				if q.healthState() == state {
					return 1
				}
				return 0
			}, lbl, obs.L("state", state))
	}
}

// mountObs adds /metrics and the pprof endpoints to the mux. pprof is
// mounted alongside metrics (both are -obs-gated): profiling the hot
// aggregation path is exactly what the flag is for.
func mountObs(mux *http.ServeMux, reg *obs.Registry) {
	mux.Handle("/metrics", obs.Handler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// instrumentFanout registers the ring gauges of a runner (with -obs): how
// many published batches it has not yet released, and the ring backlog in
// tuples — the ring is the runner's one ingest queue, so this is everything
// queued upstream of its disorder buffer.
func instrumentFanout(reg *obs.Registry, q *queryRunner, sub *fanout.Sub) {
	if reg == nil {
		return
	}
	lbl := obs.L("query", q.name)
	reg.GaugeFunc("aq_fanout_lag_batches",
		"Published fan-out ring batches the query has not yet released.",
		func() float64 { return float64(sub.Lag()) }, lbl)
	reg.GaugeFunc("aq_queue_depth", "Occupancy of a pipeline channel.",
		func() float64 { return float64(sub.Pending()) }, lbl, obs.L("queue", "fanout"))
}

// instrumentFanoutProducer registers the per-stream producer counters of
// a fan-out group's broadcast ring.
func instrumentFanoutProducer(reg *obs.Registry, stream string, b *fanout.Broadcast) {
	if reg == nil {
		return
	}
	lbl := obs.L("stream", stream)
	reg.CounterFunc("aq_fanout_published_total",
		"Batches published into the shared-source broadcast ring.",
		func() float64 { return float64(b.Published()) }, lbl)
	reg.CounterFunc("aq_fanout_dropped_total",
		"Data tuples shed by lapped ShedOldest ring subscribers.",
		func() float64 { return float64(b.Dropped()) }, lbl)
}
