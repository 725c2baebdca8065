package main

// Compiled-in feeds: one producer per stream pays generation, chaos
// decoration and retry once, publishing pooled batches into a broadcast
// ring (internal/fanout); the stream's runners — one, or -fanout N
// replicas — consume the same batches through per-runner cursors.

import (
	"context"

	"repro/internal/fanout"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/stream"
)

// fanoutFeedLoop feeds one stream's runners: one replaySegments producer
// publishing into the stream's broadcast ring b, read by the loop of each
// group of its runners (replicas behind the same fixed handler share one; see
// group.go). Subscriptions are Block — a compiled-in query sees its whole
// stream, and backpressure bounds the producer's lead at the ring — and the
// loops end with the ring, not with ctx: what was published is applied, and
// every runner's windows are flushed.
func fanoutFeedLoop(ctx context.Context, b *fanout.Broadcast, runners []*queryRunner, base string, load func(seed uint64) gen.Config, seed uint64, cfg appConfig, reg *obs.Registry) {
	if runners[0].tracer != nil {
		b.Trace(runners[0].tracer) // publish events land in the lead runner's flight recorder
	}
	instrumentFanoutProducer(reg, base, b)
	// LIFO: Close publishes end-of-stream, then the loops are waited for.
	defer func() {
		for _, q := range runners {
			<-q.grp.done
		}
	}()
	defer b.Close()

	replaySegments(ctx, runners, load, seed, cfg, func(items []stream.Item) bool {
		return b.Publish(ctx, append(b.Get(), items...)) == nil
	})
}
