package cq

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/durable"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/window"
)

// itemBatch is the source→core transport unit: a pooled batch of accepted
// items plus, for durable queries, the disorder accumulator as of the
// batch's last item — intake runs ahead of the core on the source
// goroutine, and a snapshot cut at this batch must record the accumulator
// as it stood here, not as the source stage has advanced it since.
type itemBatch struct {
	items []stream.Item
	cut   durable.DisorderCut
}

const (
	// defaultIngestCap is the historical bound (in tuples) on the
	// source→core channel.
	defaultIngestCap = 256
	// maxDispatchBatch bounds (in tuples) the batches the grouped
	// dispatcher hands the window shards.
	maxDispatchBatch = 256
	// defaultBatch is the transport batch size when Batch was not called.
	defaultBatch = 64
	// maxDefaultShards caps the automatic shard count for grouped queries.
	maxDefaultShards = 8
)

// RunConcurrent executes the query as a two-goroutine pipeline around the
// step core: a source stage that pulls (with retry), applies filter/map,
// measures disorder, sheds under overload and batches; and a core stage
// that steps each batch through the disorder handler and the window
// operator (see Exec). Results are streamed to sink from the core stage's
// goroutine as they are emitted, and the final report is returned once the
// source is exhausted or ctx is cancelled. Over a shared fan-out ring
// (NewShared, RunShared) the ring already is the ingest queue, so the two
// stages collapse into one goroutine: NextBatch → intake → Step → Release.
//
// Transport between the stages is batched: pooled slices of up to Batch
// items, recycled through a sync.Pool, so a saturated pipeline pays one
// channel operation per batch instead of per tuple. Partial batches ship
// as soon as the core is idle, and heartbeats and end-of-stream always
// force the batch out, so batching changes neither emission order nor the
// PreFlush latency accounting.
//
// Grouped queries run the window stage on Shards parallel workers: the
// core's released tuples are hash-partitioned by group key, each worker
// owns its partition's keyed window state, and per-shard results are
// merged back into KeyedOp's canonical by-key order. Output — results,
// order, stats — is identical to the synchronous Run for every shard and
// batch setting (absent faults and shedding), because every stage
// preserves arrival order and the merge is deterministic.
//
// Failure semantics: a panic in any stage (including a shard worker) is
// recovered, cancels the pipeline, and is returned as an error naming the
// stage. A source error is retried per the Retry policy (if configured);
// once the budget is exhausted or the circuit breaker opens, everything
// accepted before the error is still applied (and, for a durable query,
// journaled) and then the error is returned. A durability error aborts the
// run. Under the shedding overload policies a full ingest queue drops
// tuples instead of blocking; drops are counted on the report and —
// because shed tuples are still recorded as input — degrade the
// oracle-compared realized quality. Cancellation never deadlocks, even
// when sink blocks forever: the executor abandons the core stage rather
// than waiting on it (the stuck sink's goroutine is leaked, which is the
// best Go can do about a callback that never returns).
func (q *AggQuery) RunConcurrent(ctx context.Context, sink func(window.Result)) (*AggReport, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}

	// Internal cancellation: a stage failure cancels the whole pipeline,
	// with the failure as the cause, so sibling stages blocked on channel
	// operations unwind promptly. failure tells it from the caller's cancel.
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	failure := func() error {
		if cause := context.Cause(ctx); cause != ctx.Err() {
			return cause
		}
		return nil
	}
	// srcErr is a terminal source error: not a cancel — what was accepted
	// before it is still applied. Written before items closes, read after.
	var srcErr error

	x, err := newExec(q, sink)
	if err != nil {
		return nil, err
	}
	var shards *shardStage
	if q.grouped {
		n := q.shards
		if n <= 0 {
			n = min(runtime.GOMAXPROCS(0), maxDefaultShards)
		}
		shards = newShardStage(ctx, x, n, sink, fail)
		x.win = shards
	}

	batchSize := q.batchSize
	if batchSize <= 0 {
		batchSize = defaultBatch
	}
	done := make(chan struct{})
	// coreStage wraps the goroutine that owns the Exec: convert a panic
	// into the stage error, join the shard workers, then signal done. (A
	// crash recovery's journal suffix is replayed by the first Step or by
	// Finish; its emissions reach sink like live ones.)
	coreStage := func(body func()) {
		defer close(done)
		if shards != nil {
			defer shards.close()
		}
		defer func() {
			if p := recover(); p != nil {
				fail(x.panicErr(p))
			}
		}()
		body()
		if ctx.Err() != nil || srcErr != nil {
			return // cancelled or failed: no bogus final flush
		}
		if err := x.Finish(); err != nil {
			fail(err)
		}
	}

	var retrier *resilience.RetryingSource
	var shed int64
	var items chan itemBatch
	if q.shared != nil {
		go coreStage(func() { q.receiveRing(ctx, x, fail) })
	} else {
		ingestCap := q.ingestCap
		if ingestCap <= 0 {
			ingestCap = defaultIngestCap
		}
		// The capacity is configured in tuples; batches divide it, and a
		// batch never exceeds the queue bound itself.
		srcBatch := min(batchSize, ingestCap)
		items = make(chan itemBatch, max(1, ingestCap/srcBatch))
		// Batch slices are recycled: the core returns the batches it
		// finished, so a steady-state pipeline allocates no transport memory.
		var pool sync.Pool
		pool.New = func() any { return make([]stream.Item, 0, srcBatch) }

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

		// Source stage. Owns the source, the shed counter and the Exec's
		// intake fields (input record, disorder accumulator) until it
		// closes items.
		go func() {
			defer close(items)
			defer func() {
				if p := recover(); p != nil {
					fail(fmt.Errorf("cq: %s stage panicked: %v", stageSource, p))
				}
			}()
			// Minimum batch for a starvation-triggered ship (see the
			// idle-ship branch below); a full srcBatch still ships eagerly.
			idleShipMin := min(32, srcBatch)
			cur := pool.Get().([]stream.Item)[:0]
			// cut is the disorder accumulator as of cur's last item. It is
			// taken at append time, not ship time: by then intake has
			// already seen the item that found the batch full.
			var cut durable.DisorderCut
			// ship sends the in-progress batch downstream; the non-blocking
			// form is the overload probe, the blocking form applies
			// backpressure. False means the queue refused (probe) or the
			// pipeline was cancelled (blocking).
			ship := func(block bool) bool {
				if len(cur) == 0 {
					return true
				}
				ib := itemBatch{items: cur, cut: cut}
				if block {
					select {
					case items <- ib:
					case <-ctx.Done():
						return false
					}
				} else {
					select {
					case items <- ib:
					default:
						return false
					}
				}
				q.telem.noteIngestBatch(len(cur))
				q.tracer.SourceBatch(int64(x.dis.clock), len(cur))
				cur = pool.Get().([]stream.Item)[:0]
				return true
			}
			for {
				it, ok, err := src.NextErr()
				if err != nil {
					// A durable query's journal ends exactly at the failure.
					ship(true)
					srcErr = fmt.Errorf("cq: source: %w", err)
					return
				}
				if !ok {
					ship(true)
					return
				}
				it, keep, late := x.accept(it)
				if !keep {
					continue
				}
				if len(cur) >= srcBatch && !ship(false) {
					// Batch full and the queue refused it: overload. Heartbeats
					// are progress signals and are never shed; a full queue
					// applies backpressure to them (and to everything else
					// under the blocking policy).
					canShed := !it.Heartbeat &&
						(q.overload == resilience.ShedNewest || (q.overload == resilience.ShedLate && late))
					if canShed {
						shed++
						q.telem.noteShed()
						q.tracer.Shed(int64(it.Tuple.TS), 1)
						continue
					}
					if !ship(true) {
						return
					}
				}
				cur = append(cur, it)
				if x.log != nil {
					cut = x.dis.cut()
				}
				q.telem.noteSource(it.Heartbeat, len(items)*srcBatch+len(cur))
				// Heartbeats force the batch out so the core's clock keeps
				// moving; an idle queue means the core is starved, so holding
				// a partial batch would only add latency. The idleShipMin
				// floor keeps a starved core from degenerating the transport
				// into per-item handoffs — each tiny ship costs two scheduler
				// switches (ruinous on few cores), and a sub-minimum batch is
				// at most one heartbeat away from being forced out anyway.
				if it.Heartbeat || (len(items) == 0 && len(cur) >= idleShipMin) {
					if !ship(true) {
						return
					}
				}
			}
		}()

		go coreStage(func() {
			for ib := range items {
				if ctx.Err() != nil {
					continue // cancelled: drain without invoking the sink
				}
				if err := x.step(ib.items, &ib.cut); err != nil {
					fail(err)
					continue
				}
				pool.Put(ib.items[:0])
			}
		})
	}

	select {
	case <-done:
	case <-ctx.Done():
		// Join the source stage (it exits through its ctx selects and
		// closes items) but not the core stage: a sink that blocks forever
		// would wedge it, and with it this return.
		if items != nil {
			for range items {
			}
		}
	}
	if err := failure(); err != nil {
		return nil, err
	}
	// select may take done although ctx is cancelled too: the core stage
	// then skipped Finish, and the report is a truncated one.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if srcErr != nil {
		return nil, srcErr
	}

	rep := x.Report()
	if q.shared != nil {
		// Ring-level losses (ShedOldest laps) are this query's sheds:
		// fold them into the same accounting the overload policies use.
		// Unlike engine-side sheds the lapped tuples never reached the
		// per-query intake, so they are absent from Input/Disorder —
		// quality must be read through the shed-adjusted metrics.
		shed = q.shared.Shed()
	}
	rep.Handler.Shed = shed
	rep.Shed = shed
	if retrier != nil {
		rep.Retries = retrier.Retries()
	}
	return rep, nil
}

// receiveRing is the shared-source driver loop: the fan-out ring already
// is the ingest queue — batches are borrowed in place from the producer's
// publish (no copy, no per-query channel), stepped whole, and released
// once the core has absorbed them. Per-consumer work (filter/map, disorder
// accounting, KeepInput) still happens here, per query, so the report is
// field-for-field what a standalone run over the same stream would
// produce; only the shared decode/generate/journal work upstream of the
// ring is paid once for all subscribers.
func (q *AggQuery) receiveRing(ctx context.Context, x *Exec, fail func(error)) {
	sub := q.shared
	q.telem.fanoutGauges(sub)
	// A consumer that stops reading must never wedge the producer or its
	// Block peers: leaving marks the cursor dead.
	defer sub.Unsubscribe()
	var staged []stream.Item // transform staging (filter/map only)
	transforming := q.filter != nil || q.mapFn != nil
	for {
		items, seq, ok, err := sub.NextBatch(ctx)
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
				if out, keep, _ := x.accept(it); keep {
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
		depth := int(sub.Pending())
		for _, it := range eff {
			q.telem.noteSource(it.Heartbeat, depth)
		}
		q.telem.noteIngestBatch(len(eff))
		q.tracer.SourceBatch(int64(x.dis.clock), len(eff))
		if err := x.Step(eff); err != nil {
			fail(err)
			return
		}
		sub.Release(seq)
	}
}
