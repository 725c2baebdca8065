package main

// Observability wiring: with -obs the server owns an obs.Registry,
// every query runner registers per-query instruments into it, and the
// HTTP mux gains /metrics (Prometheus text format) plus the standard
// net/http/pprof endpoints. docs/OBSERVABILITY.md catalogs the metrics.
//
// A query's instruments come from three places, and each name from one:
//
//   - The engine's set (cq.Telemetry, installed by runnerDef.query; ring
//     gauges by cq.Group): stage throughput, heartbeats, ring
//     laps, the disorder handler's stragglers, slack and depth, batch
//     sizes and emission latency, updated by the step core under the
//     group's lock — what a library user of internal/cq sees too.
//   - The adaptive handler's controller metrics (core.Telemetry, installed
//     on the handler by buildRunner).
//   - What only the server knows (instrument below): retries, panics, the
//     latency p95, shed-adjusted error and health, exported as CounterFunc/
//     GaugeFunc callbacks that lock the runner at scrape time, and the
//     watchdog's verdicts. The hot path pays nothing for these.

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

// instrument registers what only the server knows about the runner; called
// by groupRegistry.place once the runner is in its group. A DELETE forgets all of the
// query's series at once (obs.Registry.Forget), these callbacks with them.
func (q *queryRunner) instrument(reg *obs.Registry) {
	lbl := obs.L("query", q.name)

	// Quality-SLO verdicts: aq_quality_violation_total and
	// aq_time_in_violation_ms, pulled from the watchdog at scrape time.
	q.watchdog.Register(reg, q.name)

	// Cumulative counters owned by the runner.
	counter := func(name, help string, read func() int64) {
		reg.CounterFunc(name, help, func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return float64(read())
		}, lbl)
	}
	counter("aq_source_retries_total", "Source retry attempts spent by the retry policy.",
		func() int64 { return q.retries })
	counter("aq_stage_panics_total", "Panics isolated while processing items.",
		func() int64 { return q.panics })

	// Current values.
	gauge := func(name, help string, read func() float64) {
		reg.GaugeFunc(name, help, func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return read()
		}, lbl)
	}
	gauge("aq_latency_p95_ms", "Streaming p95 of result emission latency (stream-time ms).",
		func() float64 { return q.latency.Quantile(0.95) })
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

// instrumentFanoutProducer registers the per-stream producer counter of a
// fan-out group's broadcast ring.
func instrumentFanoutProducer(reg *obs.Registry, stream string, b *fanout.Broadcast) {
	if reg == nil {
		return
	}
	lbl := obs.L("stream", stream)
	reg.CounterFunc("aq_fanout_published_total",
		"Batches published into the shared-source broadcast ring.",
		func() float64 { return float64(b.Published()) }, lbl)
}
