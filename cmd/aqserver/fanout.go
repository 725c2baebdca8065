package main

// Compiled-in feeds: one producer per stream pays generation, chaos
// decoration and retry once, publishing pooled batches into a broadcast
// ring (internal/fanout), which the stream's runner consumes.

import (
	"context"

	"repro/internal/fanout"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/stream"
)

// fanoutFeedLoop feeds one stream's runner q: one replaySegments producer
// publishing into the stream's broadcast ring b, read by q's group's loop
// (group.go). The subscription is Block — a compiled-in query sees its whole
// stream, and backpressure bounds the producer's lead at the ring — and the
// loop ends with the ring, not with ctx: what was published is applied, and
// the runner's windows are flushed.
func fanoutFeedLoop(ctx context.Context, b *fanout.Broadcast, q *queryRunner, load func(seed uint64) gen.Config, seed uint64, cfg appConfig, reg *obs.Registry) {
	if q.tracer != nil {
		b.Trace(q.tracer) // publish events land in the runner's flight recorder
	}
	instrumentFanoutProducer(reg, q.name, b)
	// LIFO: Close publishes end-of-stream, then the loop is waited for.
	defer func() { <-q.grp.done }()
	defer b.Close()

	replaySegments(ctx, q, load, seed, cfg, func(items []stream.Item) bool {
		return b.Publish(ctx, append(b.Get(), items...)) == nil
	})
}
