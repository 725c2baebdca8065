package main

// Shared-source fan-out (-fanout N): one producer per stream pays
// generation, chaos decoration and retry once, publishing pooled batches
// into a broadcast ring (internal/fanout); N replica runners consume the
// same batches through per-replica cursors. Compare feedLoop, which pays
// the whole ingest path per query; both replay through replaySegments.

import (
	"context"
	"sync"

	"repro/internal/fanout"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/stream"
)

// fanoutFeedLoop feeds a -fanout group: one replaySegments producer
// publishing into a broadcast ring, one pumpRing consumer per replica.
// Subscriptions are Block: a replica's bounded ingest queue (and its
// overload policy) already decides what a slow query drops, so ring
// consumers always drain and backpressure only bounds the producer's lead.
func fanoutFeedLoop(ctx context.Context, runners []*queryRunner, group string, load func(seed uint64) gen.Config, seed uint64, cfg appConfig, reg *obs.Registry) {
	b := fanout.New(fanout.Options{Ring: 64, BatchCap: 128})
	if runners[0].tracer != nil {
		b.Trace(runners[0].tracer) // publish events land in replica #0's flight recorder
	}
	var wg sync.WaitGroup
	for _, q := range runners {
		sub := b.Subscribe(q.name, fanout.Block)
		instrumentFanout(reg, q, sub)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Unsubscribe()
			pumpRing(ctx, q, sub) // finishes the replica when the ring ends
		}()
	}
	instrumentFanoutProducer(reg, group, b)
	// LIFO: Close publishes end-of-stream (waking blocked consumers),
	// then Wait joins them.
	defer wg.Wait()
	defer b.Close()

	replaySegments(ctx, runners, load, seed, cfg, func(items []stream.Item) bool {
		return b.Publish(ctx, append(b.Get(), items...)) == nil
	})
}
