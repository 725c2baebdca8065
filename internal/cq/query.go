// Package cq is the continuous-query engine tying the substrates together:
// a query couples an arrival-ordered source, a disorder handler (fixed-slack
// baseline or the adaptive quality-driven handlers from internal/core), and a
// windowed aggregate or a sliding-window join.
//
// There is one executor, Exec (exec.go): a synchronous single-writer step
// core that applies batches of accepted items to the handler and the
// window operators it feeds, one per query, with journaling, recovery,
// emission and snapshots inside the step. Everything else is a driver that
// feeds it. Run pulls a source on the calling goroutine, one item per step
// — deterministic, so the experiment harness uses it and results reproduce
// bit for bit. The other in-process driver is the ring driver (engine.go):
// a producer goroutine pulls the source into a fan-out ring
// (internal/fanout) — the one ingest queue — and a core goroutine per group
// of queries that can share a disorder pass (ShareKey) receives and steps its
// batches, streaming results to a callback as they are produced. RunShared is
// that driver over many queries; RunConcurrent is RunShared of one query over
// its own source, which it may retry. cmd/aqserver's runner groups run the
// same ring loop, Group.Run, under a fault policy of their own. A grouped
// query (GroupBy) differs from a plain one only in its window stage — one
// keyed operator instead of one plain operator — so every driver runs both;
// a join query (NewJoin) is Run's loop over its merged sources with the join
// operator as its window stage.
package cq

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/durable"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/obs/tracez"
	"repro/internal/stream"
	"repro/internal/window"
)

// AggQuery is a single-stream windowed-aggregate continuous query.
// Construct with New (or NewFallible for sources that can fail), chain
// option methods, then call Run or RunConcurrent — or build it without a
// source and pass it to RunShared, or to NewExec for a host that feeds the
// query itself.
type AggQuery struct {
	source    stream.ErrSource
	handler   buffer.Handler
	spec      window.Spec
	agg       window.Factory
	policy    window.LatePolicy
	refineFor stream.Time
	keepInput bool
	grouped   bool

	batchSize  int
	discardRep bool
	telem      *Telemetry
	tracer     *tracez.Tracer
	durable    *durable.QueryLog

	hasWindow bool
	join      *join.Join // a join query's operator (JoinQuery.Run)
}

// New starts building a query over the given arrival-ordered source.
func New(source stream.Source) *AggQuery {
	if source == nil {
		return &AggQuery{}
	}
	return &AggQuery{source: stream.AsErrSource(source)}
}

// NewFallible starts building a query over a source whose delivery can
// fail (stream.ErrSource). To make RunConcurrent ride through transient
// failures instead of aborting on the first one, wrap the source
// (resilience.NewRetryingSource) under RunConcurrent's context; see
// RunConcurrent for what that context bounds and how retries are traced.
func NewFallible(source stream.ErrSource) *AggQuery {
	return &AggQuery{source: source}
}

// Handle sets the disorder handler. Defaults to no handling (K = 0).
func (q *AggQuery) Handle(h buffer.Handler) *AggQuery {
	q.handler = h
	return q
}

// Window sets the sliding-window aggregate evaluated by the query.
func (q *AggQuery) Window(spec window.Spec, agg window.Factory) *AggQuery {
	q.spec, q.agg, q.hasWindow = spec, agg, true
	return q
}

// Refine switches the window operator to RefineLate with the given
// retention horizon: late tuples re-emit corrected results instead of
// being dropped.
func (q *AggQuery) Refine(horizon stream.Time) *AggQuery {
	q.policy, q.refineFor = window.RefineLate, horizon
	return q
}

// AggCore does nothing: there is one aggregation core. It is kept, with
// window.CoreKind, only because bench/ compiles against it (see
// window.NewOpWithCore).
func (q *AggQuery) AggCore(window.CoreKind) *AggQuery { return q }

// KeepInput retains the input tuples on the report so callers can compute
// oracle ground truth.
func (q *AggQuery) KeepInput() *AggQuery {
	q.keepInput = true
	return q
}

// Batch sets RunConcurrent's transport batch size: the ring hands the step core pooled batches of up to n items
// instead of single tuples, trading per-tuple wake-ups for one (and one
// journal append, one handler call) per batch. Partial batches are shipped
// as soon as the core has drained the ring, and heartbeats and
// end-of-stream always force a flush, so batching never parks a result
// behind the batch boundary and the PreFlush-aware latency metrics keep
// their meaning. n <= 0 keeps the default (64); n = 1 reproduces per-tuple
// transport.
func (q *AggQuery) Batch(n int) *AggQuery {
	q.batchSize = n
	return q
}

// DiscardReport makes the executor drop results from the AggReport after
// delivering them to the sink: Results/Keyed stay empty while the sink
// still sees every result in order. PreFlush still counts the
// progress-emitted results (it is a counter, not a slice), grouped or not.
// Long-running deployments need this — a continuous query that never ends would otherwise accumulate its
// whole output in memory. Run ignores it (its report is the output).
func (q *AggQuery) DiscardReport() *AggQuery {
	q.discardRep = true
	return q
}

// Instrument attaches live telemetry (see NewTelemetry): the step core
// updates the instruments as tuples flow, under every driver, making stage
// throughput, the disorder handler's stragglers, slack and depth, sheds and
// emission latency observable while the query runs. Instruments only
// observe: a run's output and trace are the same with or without them.
func (q *AggQuery) Instrument(t *Telemetry) *AggQuery {
	q.telem = t
	return q
}

// Trace attaches an event tracer (see internal/obs/tracez): the step core
// and its drivers mirror the query's lifecycle — source batches, buffer
// inserts/releases/stragglers, slack adaptations, window emits with
// per-window provenance, sheds, retries, breaker trips — into the
// tracer's flight recorder. Events are stamped with stream time, so the
// synchronous Run driver produces a bit-identical trace on every
// replay of the same input (the simulation harness asserts this via
// tracez.Digest). Adaptive handlers from internal/core additionally
// report controller decisions and realized-quality samples, which drive
// the tracer's quality-SLO watchdog when one is attached.
func (q *AggQuery) Trace(tr *tracez.Tracer) *AggQuery {
	q.tracer = tr
	return q
}

// GroupBy partitions the window aggregate by tuple key (GROUP BY key):
// each key gets independent windows sharing one event-time clock. Results
// land in AggReport.Keyed instead of AggReport.Results, ordered by window
// and, within one step, by key. Every driver evaluates the groups on one
// keyed operator inside the step core, so their output is identical.
func (q *AggQuery) GroupBy() *AggQuery {
	q.grouped = true
	return q
}

// validate checks a query Run or RunConcurrent is about to pull.
func (q *AggQuery) validate() error {
	if q.source == nil {
		return errors.New("cq: query needs a source")
	}
	return q.validateShape()
}

// validateRing checks what a query on somebody else's ring (RunShared) must
// not carry, and its shape.
func (q *AggQuery) validateRing() error {
	if q.source != nil {
		return errors.New("cq: a RunShared query must be built without a source (the ring provides it)")
	}
	if q.durable != nil {
		return errors.New("cq: Durable does not support shared-source queries (journal the producer)")
	}
	return q.validateShape()
}

// validateShape checks everything but where the items come from.
func (q *AggQuery) validateShape() error {
	if !q.hasWindow {
		return errors.New("cq: query needs a Window stage")
	}
	if err := q.spec.Validate(); err != nil {
		return err
	}
	if q.durable != nil && q.grouped {
		return errors.New("cq: Durable does not support grouped queries")
	}
	return nil
}

// AggReport is the outcome of executing an AggQuery.
type AggReport struct {
	Results  []window.Result
	Keyed    []window.KeyedResult // grouped queries only
	Handler  buffer.Stats
	Op       window.OpStats
	Input    []stream.Tuple // only when KeepInput was set
	Disorder stream.DisorderStats
	// PreFlush is the number of leading Results (or Keyed results, for
	// grouped queries) emitted by stream progress; entries beyond it were
	// forced out by the end-of-stream flush and carry boundary latencies
	// (latency metrics skip them).
	PreFlush int
	// Shed counts the tuples a ShedOldest ring subscription lapped past
	// the query (a Group's loop: RunShared, cmd/aqserver). They never
	// reached its intake, so they are absent from Input/Disorder: quality
	// under shedding is read through the shed-adjusted metrics.
	// Handler.Shed carries the same count for handler-level reporting.
	Shed int64
	// Recovery is set when a durable query recovered prior state before
	// processing (see Durable); nil for fresh starts and non-durable runs.
	Recovery *RecoveryInfo
}

// Oracle computes exact ground-truth results for the report's input; the
// query must have been built with KeepInput.
func (r *AggReport) Oracle(spec window.Spec, agg window.Factory) []window.Result {
	return window.Oracle(spec, agg, r.Input)
}

// Quality compares the report's results against the oracle. The query must
// have been built with KeepInput.
func (r *AggReport) Quality(spec window.Spec, agg window.Factory, opts metrics.CompareOpts) metrics.QualityReport {
	return metrics.Compare(r.Results, r.Oracle(spec, agg), opts)
}

// KeyedOracle computes exact per-key ground truth; the query must have
// been built with KeepInput and GroupBy.
func (r *AggReport) KeyedOracle(spec window.Spec, agg window.Factory) []window.KeyedResult {
	return window.KeyedOracle(spec, agg, r.Input)
}

// KeyedQuality compares grouped results against the per-key oracle.
func (r *AggReport) KeyedQuality(spec window.Spec, agg window.Factory, opts metrics.CompareOpts) metrics.QualityReport {
	return metrics.CompareKeyed(r.Keyed, r.KeyedOracle(spec, agg), opts)
}

// Latency summarizes result latency over the results emitted by stream
// progress (flush-forced boundary results are excluded), skipping warm-up
// windows. It covers whichever of Results/Keyed the query produced (a
// DiscardReport report retained neither, and summarizes nothing).
func (r *AggReport) Latency(skipWarmup int) metrics.LatencyReport {
	if len(r.Keyed) > 0 {
		flat := make([]window.Result, 0, r.PreFlush)
		for _, kr := range r.Keyed[:r.PreFlush] {
			flat = append(flat, kr.Result)
		}
		return metrics.Latency(flat, skipWarmup)
	}
	return metrics.Latency(r.Results[:min(r.PreFlush, len(r.Results))], skipWarmup)
}

// Run executes the query synchronously and deterministically: the source
// is drained in arrival order on the calling goroutine, one item per step
// of the core. It is the harness driver: no retries and no wall-clock
// backoff (a fallible source's first error ends it), no queue, and a
// durability error aborts the run.
func (q *AggQuery) Run() (*AggReport, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	// The report is the output: DiscardReport applies to the concurrent
	// drivers only.
	hq := *q
	hq.discardRep = false
	x, err := newExec(&hq, nil)
	if err != nil {
		return nil, err
	}
	return x.run(q.source)
}

// run is the synchronous driver's loop, a query's or a join's: it pulls src
// on the calling goroutine, one item per step, and finishes the stream.
func (x *Exec) run(src stream.ErrSource) (*AggReport, error) {
	var one [1]stream.Item
	for {
		it, ok, err := src.NextErr()
		if err != nil {
			return nil, fmt.Errorf("cq: source: %w", err)
		}
		if !ok {
			if err := x.Finish(); err != nil {
				return nil, err
			}
			return x.Report(), nil
		}
		one[0] = it
		x.noteInput(one[:])
		if err := x.Step(one[:]); err != nil {
			return nil, err
		}
	}
}

// traceTo hooks a disorder handler exposing TraceTo (the adaptive
// controllers in internal/core) into the query's tracer, so it reports its
// decisions directly. Inserts, releases, stragglers and slack changes become
// buffer events without it: the executor records them (Exec.sync).
func (q *AggQuery) traceTo(h buffer.Handler) {
	if qt, ok := h.(interface{ TraceTo(*tracez.Tracer) }); ok && q.tracer != nil {
		qt.TraceTo(q.tracer)
	}
}
