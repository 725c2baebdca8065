package cq

import (
	"cmp"
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
	// (i indexes the queries argument). Called from the goroutine of the
	// step core the query's window stage is in — one call at a time per
	// query, but concurrently across step cores.
	Sink func(i int, r window.Result)
}

// RunShared executes M queries over one shared ingest path: src is
// drained exactly once by a producer goroutine that publishes pooled
// batches into a fanout.Broadcast, and the queries consume the same
// published batches through cursors of their own (see internal/fanout).
// Queries whose disorder handlers release identical runs from identical
// input — equal ShareKey: the same fixed handler, no filter or map — share
// one step core (Exec.Join): one subscription, one core goroutine, one
// disorder pass feeding every one of their window stages. Each of the
// others runs alone. The queries must have been built with
// NewShared-compatible shapes minus the subscription — RunShared subscribes
// them itself — i.e. with a nil source; everything else (handler, window,
// grouping, batch, telemetry, tracing) is per query as usual, and every
// report reads as the query's standalone run over the stream would.
//
// Resilience belongs upstream: wrap src with resilience.NewRetryingSource
// (or any chaos/retry stack) before calling — the single producer pays
// for it once on behalf of every subscriber. A producer failure reaches
// every query after its published prefix is drained, so all reports fail
// with the same cause. A stage failure — a panic in a handler, operator or
// sink — fails the queries of its step core, which share the pass the step
// was in.
//
// The returned reports are index-aligned with queries. The first
// per-query error (or the producer's, if the queries all survived) is
// returned; reports of successful queries are still filled in.
func RunShared(ctx context.Context, src stream.ErrSource, opts SharedOpts, queries ...*AggQuery) ([]*AggReport, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	// Each query runs as a copy, so the caller's queries are left as built.
	// Everything is validated and built before anything subscribes: a query
	// that refuses to run would otherwise leave a subscription unread and
	// wedge Block peers.
	stages := make([]*Stage, len(queries))
	core := make([]int, len(queries)) // stages[i] is fed by execs[core[i]]
	var execs []*Exec
	byKey := map[string]int{}
	for i, q := range queries {
		if q.source != nil || q.shared != nil {
			return nil, fmt.Errorf("cq: RunShared query %d must be built without a source (the ring provides it)", i)
		}
		if err := q.validateRing(); err != nil {
			return nil, fmt.Errorf("cq: RunShared query %d: %w", i, err)
		}
		sq := *q
		var sink func(window.Result)
		if opts.Sink != nil {
			sink = func(r window.Result) { opts.Sink(i, r) }
		}
		key := ShareKey(&sq)
		if j, ok := byKey[key]; ok && key != "" {
			s, err := execs[j].Join(&sq, sink)
			if err != nil {
				return nil, fmt.Errorf("cq: RunShared query %d: %w", i, err)
			}
			stages[i], core[i] = s, j
			continue
		}
		if err := sq.validateShape(); err != nil {
			return nil, fmt.Errorf("cq: RunShared query %d: %w", i, err)
		}
		x, err := newExec(&sq, sink)
		if err != nil {
			return nil, fmt.Errorf("cq: RunShared query %d: %w", i, err)
		}
		byKey[key] = len(execs)
		stages[i], core[i] = x.stages[0], len(execs)
		execs = append(execs, x)
	}

	b := fanout.New(fanout.Options{Ring: opts.Ring, BatchCap: opts.Batch})
	if opts.Tracer != nil {
		b.Trace(opts.Tracer)
	}
	subs := make([]*fanout.Sub, len(execs))
	for i := range queries {
		if subs[core[i]] == nil {
			subs[core[i]] = b.Subscribe(fmt.Sprintf("q%d", i), opts.Policy)
		}
	}
	pumpErr := make(chan error, 1)
	go func() { pumpErr <- b.Pump(ctx, src, opts.Batch) }()

	errs := make([]error, len(execs))
	var wg sync.WaitGroup
	for j, x := range execs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, fail := context.WithCancelCause(ctx)
			defer fail(nil)
			drive(ctx, x, subs[j], fail)
			errs[j] = outcome(ctx)
		}()
	}
	wg.Wait()
	perr := <-pumpErr

	reps := make([]*AggReport, len(queries))
	var first error
	for i, s := range stages {
		if err := errs[core[i]]; err != nil {
			first = cmp.Or(first, err)
			continue
		}
		reps[i] = ringReport(s, subs[core[i]])
	}
	if first != nil {
		return reps, first
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
