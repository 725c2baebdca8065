package main

// Compiled-in feeds: one producer per stream pays generation, chaos
// decoration and retry once, publishing pooled batches into a broadcast
// ring (internal/fanout); the stream's runners — one, or -fanout N
// replicas — consume the same batches through per-runner cursors.

import (
	"context"
	"sync"

	"repro/internal/fanout"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/stream"
)

// fanoutFeedLoop feeds one stream's runners: one replaySegments producer
// publishing into a broadcast ring, one pumpRing consumer per runner.
// Subscriptions are Block — a compiled-in query sees its whole stream, and
// backpressure bounds the producer's lead at the ring — and the consumers
// end with the ring, not with ctx: what was published is applied, and
// every runner's windows are flushed.
func fanoutFeedLoop(ctx context.Context, runners []*queryRunner, group string, load func(seed uint64) gen.Config, seed uint64, cfg appConfig, reg *obs.Registry) {
	b := fanout.New(fanout.Options{Ring: 64, BatchCap: 128})
	if runners[0].tracer != nil {
		b.Trace(runners[0].tracer) // publish events land in the lead runner's flight recorder
	}
	var wg sync.WaitGroup
	for _, q := range runners {
		sub := b.Subscribe(q.name, fanout.Block)
		instrumentFanout(reg, q, sub)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Unsubscribe()
			pumpRing(context.WithoutCancel(ctx), q, sub) // finishes the runner when the ring ends
		}()
	}
	instrumentFanoutProducer(reg, group, b)
	// LIFO: Close publishes end-of-stream, then Wait joins the consumers.
	defer wg.Wait()
	defer b.Close()

	replaySegments(ctx, runners, load, seed, cfg, func(items []stream.Item) bool {
		return b.Publish(ctx, append(b.Get(), items...)) == nil
	})
}
