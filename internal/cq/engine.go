package cq

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/fanout"
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
// A producer goroutine pumps the query's source into the ring in pooled
// batches of up to Batch items (fanout.Broadcast.Pump: a partial batch ships
// as soon as the ring is drained, and heartbeats and end-of-stream force one
// out), and the query's Group steps each whole (Group.Run). Results reach
// sink as they are emitted; the final report is returned once the stream
// ends or ctx is cancelled. Output — results, order, stats — is identical to
// the synchronous Run for every batch setting, grouped or not (absent
// faults): it is the same step core fed the same items in the same order.
//
// Failure semantics are RunShared's, with the report withheld on any error.
// A source error ends the run: everything accepted before it is still
// applied (and, for a durable query, journaled and committed, batch by
// batch) and then the error is returned. To ride through transient failures,
// build the query over a retrying source (resilience.NewRetryingSource),
// made with the ctx given to RunConcurrent: the driver cancels no source, so
// only that context cuts a backoff sleep short, and a failed step's run
// returns once the source's retry ends, as RunShared's does. Its OnRetry and
// OnBreakerTrip hooks are what records retries in the query's tracer. A
// durability error aborts the run. A private ring never sheds: a slow core
// holds the source back.
func (q *AggQuery) RunConcurrent(ctx context.Context, sink func(window.Result)) (*AggReport, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	opts := SharedOpts{Batch: q.batchSize}
	if sink != nil {
		opts.Sink = func(_ int, r window.Result) { sink(r) }
	}
	reps, err := runRing(ctx, q.source, opts, q)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// RunShared executes M queries over one shared ingest path: src is drained
// exactly once by a producer goroutine that publishes pooled batches into a
// fanout.Broadcast, and the queries read the published batches through
// subscriptions of their own. Queries whose disorder handlers release
// identical runs from identical input — equal ShareKey: the same fixed
// handler — are one Group: one subscription, one loop goroutine, one disorder
// pass feeding every one of their window stages. Each of the others is a
// group of its own. The queries must be built without a source — the ring
// provides it; everything else (handler, window, grouping, telemetry,
// tracing) is per query, and every report reads as the query's standalone
// run over the stream would.
//
// Resilience belongs upstream: wrap src with resilience.NewRetryingSource (or
// any chaos/retry stack) before calling — the single producer pays for it
// once on behalf of every subscriber. A producer failure reaches every query
// after its published prefix is applied, so all reports fail with the same
// cause; a panic in the producer fails them all at once, named as the source
// stage's. A step failure — a panic in a handler, operator or sink, or a
// durability error — fails the queries of its group (the nil Fault), named
// by stage; the others run on. Cancellation never deadlocks, even when a
// sink blocks forever: the driver abandons that group rather than waiting on
// it (its goroutine is leaked, the best Go can do about a callback that
// never returns). The returned reports are index-aligned with queries. The
// first per-query error is returned; reports of successful queries are still
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
	return runRing(ctx, src, opts, queries...)
}

// runRing is the one ring driver. It runs validated queries, each as a copy
// without its source, off one fan-out ring: it subscribes, opens a Group per
// ShareKey or joins the query to the open one (every subscription is fresh
// before the pump starts), starts one producer goroutine pumping src into
// the ring, runs each group's loop (Group.Run) in a
// goroutine of its own, under the nil Fault, and collects the reports. A
// group's failure cancels that group, a producer panic every group. A group
// has ended once its loop is done or its context is: a loop stuck in a sink
// that blocks forever is not waited for. Once every group has ended the pump
// is stopped and joined, and the reports are collected as RunShared's.
func runRing(ctx context.Context, src stream.ErrSource, opts SharedOpts, queries ...*AggQuery) ([]*AggReport, error) {
	// The caller's queries are left as built. Nothing is published before
	// every group is open, so a query that refuses to run wedges no one.
	b := fanout.New(fanout.Options{Ring: opts.Ring, BatchCap: opts.Batch})
	stages := make([]*Stage, len(queries))
	core := make([]int, len(queries)) // stages[i] is in groups[core[i]]
	var groups []*Group
	open := map[string]int{}
	for i, q := range queries {
		sq := *q
		sq.source = nil
		var sink func(window.Result)
		if opts.Sink != nil {
			sink = func(r window.Result) { opts.Sink(i, r) }
		}
		key := ShareKey(&sq)
		if j, ok := open[key]; ok && key != "" {
			s, err := groups[j].Join(&sq, sink)
			if err != nil {
				return nil, err
			}
			stages[i], core[i] = s, j
			continue
		}
		g, err := NewGroup(&sq, sink, b.Subscribe(fmt.Sprintf("core%d", len(groups)), opts.Policy), nil)
		if err != nil {
			return nil, err
		}
		open[key] = len(groups)
		stages[i], core[i] = g.x.stages[0], len(groups)
		groups = append(groups, g)
	}

	// Cancelled with the failure as the cause by a producer panic: every
	// group unwinds, and outcome tells it from the caller's cancellation.
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	pumpCtx, stopPump := context.WithCancel(ctx)
	defer stopPump()
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		defer func() {
			if p := recover(); p != nil {
				fail(fmt.Errorf("cq: %s stage panicked: %v", stageSource, p))
			}
		}()
		// A source error reaches every group through the ring, behind
		// everything published before it.
		_ = b.Pump(pumpCtx, src, opts.Batch)
	}()

	ctxs := make([]context.Context, len(groups))
	done := make([]chan struct{}, len(groups))
	for j, g := range groups {
		gctx, gfail := context.WithCancelCause(ctx)
		defer gfail(nil)
		ctxs[j], done[j] = gctx, make(chan struct{})
		go func() {
			defer close(done[j])
			if err := g.Run(gctx); err != nil {
				gfail(err)
			}
		}()
	}
	errs := make([]error, len(groups))
	for j := range groups {
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
		reps[i] = s.Report()
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
