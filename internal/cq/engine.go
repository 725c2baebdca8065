package cq

import (
	"context"
	"fmt"

	"repro/internal/fanout"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/window"
)

// defaultBatch is the transport batch size when Batch was not called.
const defaultBatch = 64

// RunConcurrent executes the query as a pipeline around the step core with
// one ingest queue, a fan-out ring (internal/fanout): the core stage
// borrows each published batch in place, applies filter/map, measures
// disorder, steps the batch through the disorder handler and the window
// operator (see Exec) and releases it. Over a private source the ring is
// the query's own — one Block subscriber — and a producer goroutine pumps
// the source (wrapped in a retrier when Retry is set) into it
// (fanout.Broadcast.Pump); over a shared subscription (NewShared,
// RunShared) somebody else's producer does. Either way the driver loop is
// receiveRing. Results are streamed to sink from the core stage's goroutine
// as they are emitted, and the final report is returned once the stream
// ends or ctx is cancelled.
//
// Transport is batched: pooled slices of up to Batch items, recycled by
// the ring, so a saturated pipeline pays one wake-up per batch instead of
// per tuple. Partial batches ship as soon as the core has drained the
// ring, and heartbeats and end-of-stream always force the batch out, so
// batching changes neither emission order nor the PreFlush latency
// accounting.
//
// Output — results, order, stats — is identical to the synchronous Run for
// every batch setting, grouped or not (absent faults and a ShedOldest
// subscription): it is the same step core fed the same items in the same
// order, and the window stage runs inside the step.
//
// Failure semantics: a panic in either goroutine (the source's or the
// core's, whose stages are the disorder handler and the window operator) is
// recovered, cancels the pipeline, and is returned as an error naming the
// stage. A source error is retried per the Retry policy
// (if configured); once the budget is exhausted or the circuit breaker
// opens, everything accepted before the error is still applied (and, for a
// durable query, journaled) and then the error is returned. A durability
// error aborts the run. A private ring never sheds: a slow core holds the
// source back. Cancellation never deadlocks, even when sink blocks
// forever: the executor abandons the core stage rather than waiting on it
// (the stuck sink's goroutine is leaked, which is the best Go can do about
// a callback that never returns).
func (q *AggQuery) RunConcurrent(ctx context.Context, sink func(window.Result)) (*AggReport, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}

	// Internal cancellation: a stage failure cancels the whole pipeline,
	// with the failure as the cause, so sibling stages blocked on the ring
	// unwind promptly. outcome tells it from the caller's cancel.
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)

	x, err := newExec(q, sink)
	if err != nil {
		return nil, err
	}
	sub := q.shared
	var retrier *resilience.RetryingSource
	pumped := make(chan struct{})
	if sub != nil {
		close(pumped) // the ring's producer is somebody else's
	} else {
		batchSize := q.batchSize
		if batchSize <= 0 {
			batchSize = defaultBatch
		}
		b := fanout.New(fanout.Options{BatchCap: batchSize})
		sub = b.Subscribe("source", fanout.Block)
		src := q.source
		if q.retry != nil {
			retry := *q.retry
			if retry.Clock == nil {
				retry.Clock = q.clock // nil stays nil: NewRetryingSource defaults to wall
			}
			if q.tracer != nil {
				tr := q.tracer
				retry.OnRetry = func(attempt int, err error) { tr.Retry(0, attempt) }
				retry.OnBreakerTrip = func() { tr.BreakerTrip(0) }
			}
			retrier = resilience.NewRetryingSource(ctx, src, retry)
			src = retrier
		}
		// Source stage. A source error reaches the core through the ring,
		// behind everything accepted before it.
		go func() {
			defer close(pumped)
			defer func() {
				if p := recover(); p != nil {
					fail(fmt.Errorf("cq: %s stage panicked: %v", stageSource, p))
				}
			}()
			_ = b.Pump(ctx, src, batchSize)
		}()
	}

	drive(ctx, x, sub, fail)
	// The source stage is joined: it exits through ctx or the ring it closed.
	<-pumped
	if err := outcome(ctx); err != nil {
		return nil, err
	}
	rep := ringReport(x.stages[0], sub)
	if retrier != nil {
		rep.Retries = retrier.Retries()
	}
	return rep, nil
}

// drive is a ring driver's core stage: on a goroutine of its own it steps x
// with sub's batches (receiveRing) and finishes x when the ring ends, turning
// a panic into the stage error. (A crash recovery's journal suffix is
// replayed by the first Step or by Finish; its emissions reach the sinks like
// live ones.) It returns once the core is done or ctx has ended, whichever is
// first: a core stuck in a sink that blocks forever is not waited for — its
// goroutine is leaked, which is the best Go can do about such a callback.
func drive(ctx context.Context, x *Exec, sub *fanout.Sub, fail func(error)) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if p := recover(); p != nil {
				fail(x.panicErr(p))
			}
		}()
		receiveRing(ctx, x, sub, fail)
		if ctx.Err() != nil {
			return // cancelled or failed: no bogus final flush
		}
		if err := x.Finish(); err != nil {
			fail(err)
		}
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
}

// outcome is a driver's verdict once drive has returned: the failure a stage
// cancelled ctx with, or ctx's own error — the caller's cancellation (drive
// may return on done although ctx is cancelled too: the core then skipped
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
// absorbed them. Per-consumer work (filter/map, disorder accounting,
// KeepInput) happens here, so every query's report is field-for-field what a
// standalone run over the same stream would produce; only the
// decode/generate work upstream of the ring is paid once for all
// subscribers — and the disorder pass once for all the queries x serves. A
// terminal producer error fails the pipeline after the batches published
// before it were applied.
func receiveRing(ctx context.Context, x *Exec, sub *fanout.Sub, fail func(error)) {
	for _, s := range x.stages {
		s.q.telem.fanoutGauges(sub)
	}
	// A consumer that stops reading must never wedge the producer or its
	// Block peers: leaving marks the cursor dead.
	defer sub.Unsubscribe()
	var staged []stream.Item // transform staging (filter/map only)
	lead := x.stages[0].q
	transforming := lead.filter != nil || lead.mapFn != nil
	var shed int64
	for {
		items, seq, ok, err := sub.NextBatch(ctx)
		if lost := sub.Shed() - shed; lost > 0 { // a ShedOldest lap
			shed += lost
			for _, s := range x.stages {
				s.q.telem.noteShed(lost)
				s.q.tracer.Shed(int64(x.dis.clock), lost)
			}
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
		// The published batch is immutable and borrowed: filter/map must
		// stage into a private slice, everything else only reads. Tuples
		// entering the handler are value copies, so the batch can be
		// released as soon as it is stepped.
		eff := items
		if transforming {
			staged = staged[:0]
			for _, it := range items {
				if out, keep := x.accept(it); keep {
					staged = append(staged, out)
				}
			}
			eff = staged
		} else {
			for _, it := range items {
				if !it.Heartbeat {
					x.noteInput(it.Tuple)
				}
			}
		}
		for _, s := range x.stages {
			s.q.telem.noteBatch(eff)
			s.q.tracer.SourceBatch(int64(x.dis.clock), len(eff))
		}
		if err := x.Step(eff); err != nil {
			fail(err)
			return
		}
		sub.Release(seq)
	}
}
