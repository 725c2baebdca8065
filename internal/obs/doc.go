// Package obs is the engine's telemetry substrate: a dependency-free
// metrics library (counters, gauges, fixed-bucket histograms) with a
// registry and Prometheus text-format exposition.
//
// The paper's contribution is a runtime trade-off — buffer slack vs.
// result quality vs. emission latency — and this package is what makes
// that trade-off observable while it is being made: the adaptation loop,
// the shed/retry accounting and the emission-latency distribution all
// publish here, and cmd/aqserver serves the registry at /metrics.
//
// # Model
//
// A Registry owns metric families; a family has a name, a help string, a
// type and any number of label-distinguished series. Instruments are
// created with get-or-create semantics:
//
//	reg := obs.NewRegistry()
//	jobs := reg.Counter("jobs_done_total", "Jobs completed.", obs.L("worker", "w1"))
//	jobs.Inc()
//
// All write paths are lock-free atomics, safe for concurrent use and
// cheap enough for per-tuple hot paths (a counter increment is one
// atomic add). Pull-style metrics that are derived from state guarded
// elsewhere register a callback instead (GaugeFunc / CounterFunc); the
// callback runs at scrape time only. Forget drops every series carrying a
// label — a deleted query's — and the callbacks with them.
//
// # Naming conventions
//
// Metric names follow Prometheus style: an `aq_` namespace prefix,
// snake_case, base units spelled out in the name (`_ms` for stream-time
// milliseconds), and a `_total` suffix on counters. docs/OBSERVABILITY.md
// holds the full catalog.
//
// # Exposition
//
// WritePrometheus renders the registry in Prometheus text format
// (version 0.0.4), deterministically ordered so the output is diffable
// and golden-testable; Handler wraps it for HTTP. A scrape appends its
// text into a pooled buffer, keeps the orderings it sorted until a
// registration or a Forget changes them, and runs callbacks with no
// registry lock held. History.AppendJSON is the same for /api/stats: the
// JSON json.Marshal made of History.Query, appended from the tracks.
package obs
