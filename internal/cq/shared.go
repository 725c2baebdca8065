package cq

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/fanout"
	"repro/internal/obs/tracez"
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
	// Tracer, when set, records a KindFanoutPublish event per published
	// batch on the producer side.
	Tracer *tracez.Tracer
	// Sink, when set, receives every query's results as they stream
	// (i indexes the queries argument). Called from each query's window
	// stage goroutine — one call at a time per query, but concurrently
	// across queries.
	Sink func(i int, r window.Result)
}

// RunShared executes M queries over one shared ingest path: src is
// drained exactly once by a producer goroutine that publishes pooled
// batches into a fanout.Broadcast, and every query consumes the same
// published batches through its own cursor (see internal/fanout). The
// queries must have been built with NewShared-compatible shapes minus
// the subscription — RunShared subscribes each one itself — i.e. with a
// nil source; everything else (handler, window, grouping, shards,
// batch, telemetry, tracing) is per query as usual.
//
// Resilience belongs upstream: wrap src with resilience.NewRetryingSource
// (or any chaos/retry stack) before calling — the single producer pays
// for it once on behalf of every subscriber. A producer failure reaches
// every query after its published prefix is drained, so all reports fail
// with the same cause.
//
// The returned reports are index-aligned with queries. The first
// per-query error (or the producer's, if the queries all survived) is
// returned; reports of successful queries are still filled in.
func RunShared(ctx context.Context, src stream.ErrSource, opts SharedOpts, queries ...*AggQuery) ([]*AggReport, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	b := fanout.New(fanout.Options{Ring: opts.Ring, BatchCap: opts.Batch})
	if opts.Tracer != nil {
		b.Trace(opts.Tracer)
	}
	// Each query runs as a copy bound to its subscription, so the caller's
	// queries are left as built. Validate everything up front: a query that
	// refuses to run would otherwise leave its subscription unread and
	// wedge Block peers.
	bound := make([]*AggQuery, len(queries))
	for i, q := range queries {
		if q.source != nil || q.shared != nil {
			return nil, fmt.Errorf("cq: RunShared query %d must be built without a source (the ring provides it)", i)
		}
		sq := *q
		sq.shared = b.Subscribe(fmt.Sprintf("q%d", i), opts.Policy)
		if err := sq.validate(); err != nil {
			return nil, fmt.Errorf("cq: RunShared query %d: %w", i, err)
		}
		bound[i] = &sq
	}

	pumpErr := make(chan error, 1)
	go func() { pumpErr <- b.Pump(ctx, src, opts.Batch) }()

	reps := make([]*AggReport, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range bound {
		wg.Add(1)
		go func(i int, q *AggQuery) {
			defer wg.Done()
			var sink func(window.Result)
			if opts.Sink != nil {
				sink = func(r window.Result) { opts.Sink(i, r) }
			}
			reps[i], errs[i] = q.RunConcurrent(ctx, sink)
		}(i, q)
	}
	wg.Wait()
	perr := <-pumpErr

	for _, err := range errs {
		if err != nil {
			return reps, err
		}
	}
	// Every consumer succeeded, so a pump "error" can only be ctx
	// cancellation racing the clean close — but surface it anyway: a
	// cancelled producer with complete consumers cannot happen unless
	// the context died after the final publish.
	if perr != nil && ctx.Err() == nil {
		return reps, perr
	}
	return reps, nil
}
