package cq

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/fanout"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/window"
)

// SharedOpts configures RunShared's broadcast ring and producer loop.
type SharedOpts struct {
	// Ring is the ring capacity in batches (<= 0 picks the fanout
	// default). Block subscribers can hold the producer back by at most
	// this many batches.
	Ring int
	// Batch is the producer's publish batch size (<= 0 picks 64).
	Batch int
	// Policy is the slow-consumer policy every subscriber runs under.
	// Block (the default) keeps each query byte-identical to its
	// standalone run; ShedOldest isolates the producer from laggards at
	// the cost of counted losses.
	Policy fanout.Policy
	// Sink, when set, receives every query's results as they stream
	// (i indexes the queries argument). Called from the goroutine of the
	// step core the query's window stage is in — one call at a time per
	// query, but concurrently across step cores.
	Sink func(i int, r window.Result)
}

// RunConcurrent executes the query as a pipeline around the step core: it is
// RunShared of one query over a ring of its own, with one Block subscriber.
// A producer goroutine pumps the query's source — wrapped in a retrier when
// Retry is set — into the ring (fanout.Broadcast.Pump), and the core stage
// borrows each published batch in place, measures disorder, steps the batch
// through the disorder handler and the window operator (see Exec) and
// releases it. Results are streamed to sink from the core stage's goroutine
// as they are emitted, and the final report is returned once the stream ends
// or ctx is cancelled.
//
// Transport is batched: pooled slices of up to Batch items, recycled by
// the ring, so a saturated pipeline pays one wake-up per batch instead of
// per tuple. Partial batches ship as soon as the core has drained the
// ring, and heartbeats and end-of-stream always force the batch out, so
// batching changes neither emission order nor the PreFlush latency
// accounting.
//
// Output — results, order, stats — is identical to the synchronous Run for
// every batch setting, grouped or not (absent faults): it is the same step
// core fed the same items in the same order, and the window stage runs inside
// the step.
//
// Failure semantics are the ring driver's (see RunShared), with the report
// withheld on any error. A source error is retried per the Retry policy (if
// configured); once the budget is exhausted or the circuit breaker opens,
// everything accepted before the error is still applied (and, for a durable
// query, journaled) and then the error is returned. A durability error aborts
// the run. A private ring never sheds: a slow core holds the source back.
func (q *AggQuery) RunConcurrent(ctx context.Context, sink func(window.Result)) (*AggReport, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	var retrier *resilience.RetryingSource
	source := func(ctx context.Context) stream.ErrSource {
		if q.retry == nil {
			return q.source
		}
		retry := *q.retry
		if retry.Clock == nil {
			retry.Clock = q.clock // nil stays nil: NewRetryingSource defaults to wall
		}
		if tr := q.tracer; tr != nil {
			retry.OnRetry = func(attempt int, err error) { tr.Retry(0, attempt) }
			retry.OnBreakerTrip = func() { tr.BreakerTrip(0) }
		}
		retrier = resilience.NewRetryingSource(ctx, q.source, retry)
		return retrier
	}
	opts := SharedOpts{Batch: q.batchSize}
	if sink != nil {
		opts.Sink = func(_ int, r window.Result) { sink(r) }
	}
	reps, err := runRing(ctx, source, opts, q)
	if err != nil {
		return nil, err
	}
	if retrier != nil {
		reps[0].Retries = retrier.Retries()
	}
	return reps[0], nil
}

// RunShared executes M queries over one shared ingest path: src is
// drained exactly once by a producer goroutine that publishes pooled
// batches into a fanout.Broadcast, and the queries consume the same
// published batches through cursors of their own (see internal/fanout).
// Queries whose disorder handlers release identical runs from identical
// input — equal ShareKey: the same fixed handler — share one step core
// (Exec.Join): one subscription, one core goroutine, one disorder pass
// feeding every one of their window stages. Each of the others runs alone.
// The queries must be built without a source — the ring provides it;
// everything else (handler, window, grouping, telemetry, tracing) is per
// query as usual, and every report reads as the query's standalone run over
// the stream would.
//
// Resilience belongs upstream: wrap src with resilience.NewRetryingSource
// (or any chaos/retry stack) before calling — the single producer pays
// for it once on behalf of every subscriber. A producer failure reaches
// every query after its published prefix is drained, so all reports fail
// with the same cause; a panic in the producer fails them all at once,
// named as the source stage's. A stage failure — a panic in a handler,
// operator or sink, or a durability error — fails the queries of its step
// core, which share the pass the step was in; the others run on. Every
// failure is recovered and returned as an error naming the stage.
// Cancellation never deadlocks, even when a sink blocks forever: the driver
// abandons that step core rather than waiting on it (its goroutine is
// leaked, which is the best Go can do about a callback that never returns).
//
// The returned reports are index-aligned with queries. The first
// per-query error is returned; reports of successful queries are still
// filled in.
func RunShared(ctx context.Context, src stream.ErrSource, opts SharedOpts, queries ...*AggQuery) ([]*AggReport, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	for i, q := range queries {
		if err := q.validateRing(); err != nil {
			return nil, fmt.Errorf("cq: RunShared query %d: %w", i, err)
		}
	}
	return runRing(ctx, func(context.Context) stream.ErrSource { return src }, opts, queries...)
}

// runRing is the one ring driver. It runs validated queries, each as a copy
// without its source, off one fan-out ring: one step core per group of equal
// ShareKey, one subscription and one goroutine each, and one producer
// goroutine pumping source(ctx) into the ring — source is called with the
// pump's context, which any retrier it builds runs under. A core stage steps
// its Exec with the ring's batches (receiveRing) and finishes it when the
// ring ends. (A crash recovery's journal suffix is replayed by the first Step
// or by Finish; its emissions reach the sinks like live ones.) A core's
// failure cancels its group, a producer panic every group. A group has ended
// once its core is done or its context is: a core stuck in a sink that blocks
// forever is not waited for. Once every group has ended the pump is stopped
// and joined, and the reports are collected as RunShared's.
func runRing(ctx context.Context, source func(context.Context) stream.ErrSource, opts SharedOpts, queries ...*AggQuery) ([]*AggReport, error) {
	// The caller's queries are left as built. Everything is built before
	// anything subscribes: a query that refuses to run would otherwise leave
	// a subscription unread and wedge Block peers.
	stages := make([]*Stage, len(queries))
	core := make([]int, len(queries)) // stages[i] is fed by execs[core[i]]
	var execs []*Exec
	byKey := map[string]int{}
	for i, q := range queries {
		sq := *q
		sq.source = nil
		var sink func(window.Result)
		if opts.Sink != nil {
			sink = func(r window.Result) { opts.Sink(i, r) }
		}
		key := ShareKey(&sq)
		if j, ok := byKey[key]; ok && key != "" {
			s, err := execs[j].Join(&sq, sink)
			if err != nil {
				return nil, err
			}
			stages[i], core[i] = s, j
			continue
		}
		x, err := newExec(&sq, sink)
		if err != nil {
			return nil, err
		}
		byKey[key] = len(execs)
		stages[i], core[i] = x.stages[0], len(execs)
		execs = append(execs, x)
	}

	// Cancelled with the failure as the cause by a producer panic: every
	// group unwinds, and outcome tells it from the caller's cancellation.
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	b := fanout.New(fanout.Options{Ring: opts.Ring, BatchCap: opts.Batch})
	subs := make([]*fanout.Sub, len(execs))
	for j := range execs {
		subs[j] = b.Subscribe(fmt.Sprintf("core%d", j), opts.Policy)
	}
	pumpCtx, stopPump := context.WithCancel(ctx)
	defer stopPump()
	src := source(pumpCtx)
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		defer func() {
			if p := recover(); p != nil {
				fail(fmt.Errorf("cq: %s stage panicked: %v", stageSource, p))
			}
		}()
		// A source error reaches every core through the ring, behind
		// everything published before it.
		_ = b.Pump(pumpCtx, src, opts.Batch)
	}()

	ctxs := make([]context.Context, len(execs))
	done := make([]chan struct{}, len(execs))
	for j, x := range execs {
		gctx, gfail := context.WithCancelCause(ctx)
		defer gfail(nil)
		ctxs[j], done[j] = gctx, make(chan struct{})
		go func() {
			defer close(done[j])
			defer func() {
				if p := recover(); p != nil {
					gfail(x.panicErr(p))
				}
			}()
			receiveRing(gctx, x, subs[j], gfail)
			if gctx.Err() != nil {
				return // cancelled or failed: no bogus final flush
			}
			if err := x.Finish(); err != nil {
				gfail(err)
			}
		}()
	}
	errs := make([]error, len(execs))
	for j := range execs {
		select {
		case <-done[j]:
		case <-ctxs[j].Done():
		}
		errs[j] = outcome(ctxs[j])
	}
	// With every consumer gone Publish never waits, so only this stops a
	// pump over an endless source.
	stopPump()
	<-pumped

	reps := make([]*AggReport, len(queries))
	var first error
	for i, s := range stages {
		if err := errs[core[i]]; err != nil {
			first = cmp.Or(first, err)
			continue
		}
		reps[i] = ringReport(s, subs[core[i]])
	}
	return reps, first
}

// outcome is a group's verdict once it has ended: the failure its context
// was cancelled with, or the context's own error — the caller's cancellation
// (a core may end although its context is cancelled too: it then skipped
// Finish, and the report is a truncated one).
func outcome(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != ctx.Err() {
		return cause
	}
	return ctx.Err()
}

// ringReport is s's report with the ring's losses: ShedOldest laps are the
// query's sheds. The lapped tuples never reached the intake, so they are
// absent from Input and Disorder — quality must be read through the
// shed-adjusted metrics.
func ringReport(s *Stage, sub *fanout.Sub) *AggReport {
	rep := s.Report()
	rep.Shed = sub.Shed()
	rep.Handler.Shed = rep.Shed
	return rep
}

// receiveRing is the one driver loop: the fan-out ring is the ingest queue
// — batches are borrowed in place from the producer's publish (no copy, no
// per-query channel), stepped whole, and released once the core has
// absorbed them. Per-consumer work (disorder accounting, KeepInput) happens
// here, so every query's report is field-for-field what a standalone run over
// the same stream would produce; only the decode/generate work upstream of
// the ring is paid once for all subscribers — and the disorder pass once for
// all the queries x serves. A terminal producer error fails the pipeline
// after the batches published before it were applied.
func receiveRing(ctx context.Context, x *Exec, sub *fanout.Sub, fail func(error)) {
	for _, s := range x.stages {
		s.q.telem.RingGauges(sub)
	}
	// A consumer that stops reading must never wedge the producer or its
	// Block peers: leaving marks the cursor dead.
	defer sub.Unsubscribe()
	var shed int64
	for {
		items, seq, ok, err := sub.NextBatch(ctx)
		if lost := sub.Shed() - shed; lost > 0 { // a ShedOldest lap
			shed += lost
			x.NoteShed(lost)
		}
		if err != nil {
			if ctx.Err() == nil {
				fail(fmt.Errorf("cq: source: %w", err))
			}
			return
		}
		if !ok {
			return
		}
		// The published batch is immutable and borrowed: everything here
		// only reads it. Tuples entering the handler are value copies, so
		// the batch can be released as soon as it is stepped.
		x.noteInput(items)
		for _, s := range x.stages {
			s.q.tracer.SourceBatch(int64(x.dis.clock), len(items))
		}
		if err := x.Step(items); err != nil {
			fail(err)
			return
		}
		sub.Release(seq)
	}
}
