package cq

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/window"
)

// released carries a tuple from the step core to the window shards
// together with the arrival-time position at which it was released.
type released struct {
	tuple stream.Tuple
	now   stream.Time
	flush bool // end-of-stream marker: flush remaining windows at now
	mark  bool // boundary marker: results so far were progress-emitted
}

// shardOf maps a group key to one of n shards. The murmur-style finalizer
// scrambles low-entropy keys (sequential user ids, small enums) so the
// partitions stay balanced.
func shardOf(key uint64, n int) int {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return int(key % uint64(n))
}

// shardChunk is one shard's output for one released batch. ends[i] is
// len(results) after the batch's i-th step, so the merger can slice the
// chunk into per-step segments; each segment is already in key order
// (KeyedOp's canonical emission order). pos is the merger's cursor,
// valid only inside one mergeStep call.
type shardChunk struct {
	results []window.KeyedResult
	ends    []int32
	pos     int32
}

// seg returns the [lo, hi) bounds of the chunk's step-th segment.
func (c *shardChunk) seg(step int) (int32, int32) {
	lo := int32(0)
	if step > 0 {
		lo = c.ends[step-1]
	}
	return lo, c.ends[step]
}

// shardStage is the window stage of a concurrent grouped query, run across
// n worker goroutines and a merger. The step core's goroutine is the
// dispatcher: released tuples are gathered into dispatch batches and every
// batch goes to every worker. Each worker owns the window.KeyedOp for its
// hash-partition of the key space: tuples it owns go through Observe,
// foreign tuples only advance its shared clock (Advance), and marks/flushes
// are applied everywhere. The merger interleaves the per-shard chunks back
// into canonical order and delivers them — report, telemetry, tracer, sinks.
//
// Execution overlaps compute with merging: batch n+1 is dispatched to the
// workers while the merger is still interleaving batch n's chunks, so the
// (serial) merge does not stall the (parallel) window work. Each worker
// rotates between two result buffers; the unbuffered out channel makes the
// rotation safe — by the time the send of batch n+1's chunk completes, the
// merger has received it, which it only does after fully merging batch n,
// so the buffer batch n lived in is free to reuse for batch n+2.
type shardStage struct {
	x        *Exec
	ctx      context.Context
	n        int
	in       []chan []released
	out      []chan shardChunk
	ops      []*window.KeyedOp
	counters []*obs.Counter
	wg       sync.WaitGroup

	cur     []released
	batch   int             // dispatch batch bound, in tuples
	pending chan []released // dispatched batches awaiting the merger
	merged  chan struct{}   // closed when the merger has drained pending
	pool    sync.Pool
	once    sync.Once
}

func newShardStage(ctx context.Context, x *Exec, n int, sink func(window.Result), fail func(error)) *shardStage {
	q := x.q
	batch := q.batchSize
	if batch <= 0 {
		batch = defaultBatch
	}
	s := &shardStage{
		x:        x,
		ctx:      ctx,
		n:        n,
		in:       make([]chan []released, n),
		out:      make([]chan shardChunk, n),
		ops:      make([]*window.KeyedOp, n),
		counters: q.telem.shardCounters(n),
		batch:    min(batch, maxDispatchBatch),
		// One batch merging, one queued behind it: enough to keep the
		// workers busy without letting the dispatcher run far ahead.
		pending: make(chan []released, 2),
		merged:  make(chan struct{}),
	}
	s.pool.New = func() any { return make([]released, 0, s.batch) }
	s.cur = s.pool.Get().([]released)[:0]
	for i := 0; i < n; i++ {
		s.in[i] = make(chan []released, 1)
		s.out[i] = make(chan shardChunk) // unbuffered: see buffer-rotation note above
		s.ops[i] = window.NewKeyedOp(q.spec, q.agg, q.policy, q.refineFor)
		s.wg.Add(1)
		go s.worker(i, fail)
	}
	go s.merge(sink, fail)
	return s
}

// shardBuf is one of a worker's two rotating result buffers.
type shardBuf struct {
	results []window.KeyedResult
	ends    []int32
}

func (s *shardStage) worker(i int, fail func(error)) {
	defer s.wg.Done()
	defer close(s.out[i])
	op := s.ops[i]
	var bufs [2]shardBuf
	cur := 0
	poisoned := false
	runBatch := func(batch []released, b *shardBuf) {
		defer func() {
			if p := recover(); p != nil {
				poisoned = true
				fail(fmt.Errorf("cq: window shard %d panicked: %v", i, p))
			}
		}()
		owned := 0
		var lastNow stream.Time
		for _, r := range batch {
			lastNow = r.now
			switch {
			case r.mark:
				// Stream mark: a bookkeeping step for the merger only.
			case r.flush:
				b.results = op.Flush(r.now, b.results)
			case shardOf(r.tuple.Key, s.n) == i:
				b.results = op.Observe(r.tuple, r.now, b.results)
				owned++
			default:
				b.results = op.Advance(r.tuple.TS, r.now, b.results)
			}
			b.ends = append(b.ends, int32(len(b.results)))
		}
		if owned > 0 {
			if s.counters != nil {
				s.counters[i].Add(float64(owned))
			}
			s.x.q.tracer.ShardBatch(int64(lastNow), i, owned)
		}
	}
	for batch := range s.in[i] {
		b := &bufs[cur]
		cur ^= 1
		b.results, b.ends = b.results[:0], b.ends[:0]
		if !poisoned {
			runBatch(batch, b)
		}
		// Pad after a panic so the merger can still index every step.
		for len(b.ends) < len(batch) {
			var last int32
			if len(b.ends) > 0 {
				last = b.ends[len(b.ends)-1]
			}
			b.ends = append(b.ends, last)
		}
		s.out[i] <- shardChunk{results: b.results, ends: b.ends}
	}
}

// collect gathers one dispatched batch's chunk from every shard; false
// means the pipeline was cancelled. The chunks' buffers are owned by the
// workers and stay valid only until the batch after the next one is
// dispatched (two-buffer rotation).
func (s *shardStage) collect(chunks []shardChunk) bool {
	for i := range s.out {
		select {
		case c, ok := <-s.out[i]:
			if !ok {
				return false
			}
			chunks[i] = c
		case <-s.ctx.Done():
			return false
		}
	}
	return true
}

// mergeStep appends step i's per-shard segments to out in the canonical
// by-key order. The shards partition the key space and each segment is
// already key-sorted, so a k-way merge of the segments — taking each
// key's contiguous run whole, which keeps a key's operator-emission
// order — reproduces exactly what a single KeyedOp would have emitted
// for this step. The shard count is small, so the merge scans the heads
// linearly instead of maintaining a heap.
func mergeStep(chunks []shardChunk, step int, out []window.KeyedResult) []window.KeyedResult {
	nonEmpty, last := 0, -1
	for s := range chunks {
		lo, hi := chunks[s].seg(step)
		chunks[s].pos = lo
		if hi > lo {
			nonEmpty++
			last = s
		}
	}
	switch nonEmpty {
	case 0:
		return out
	case 1:
		lo, hi := chunks[last].seg(step)
		return append(out, chunks[last].results[lo:hi]...)
	}
	for {
		minShard := -1
		var minKey uint64
		for s := range chunks {
			_, hi := chunks[s].seg(step)
			if chunks[s].pos >= hi {
				continue
			}
			if k := chunks[s].results[chunks[s].pos].Key; minShard < 0 || k < minKey {
				minShard, minKey = s, k
			}
		}
		if minShard < 0 {
			return out
		}
		c := &chunks[minShard]
		_, hi := c.seg(step)
		p := c.pos
		for p < hi && c.results[p].Key == minKey {
			p++
		}
		out = append(out, c.results[c.pos:p]...)
		c.pos = p
	}
}

// merge is the merger goroutine: it owns the report's keyed results.
func (s *shardStage) merge(sink func(window.Result), fail func(error)) {
	defer close(s.merged)
	defer func() {
		if p := recover(); p != nil {
			fail(fmt.Errorf("cq: %s stage panicked: %v", stageWindow, p))
		}
	}()
	q, rep := s.x.q, s.x.rep
	chunks := make([]shardChunk, s.n)
	postMark := false
	var mergeBuf []window.KeyedResult // merge scratch for DiscardReport
	for rb := range s.pending {
		if s.ctx.Err() != nil || !s.collect(chunks) {
			// Cancelled (possibly mid-batch, with a worker still holding
			// rb): keep draining pending without merging and let the
			// abandoned batches go to the GC instead of the pool.
			continue
		}
		for i, r := range rb {
			if r.mark {
				rep.PreFlush = len(rep.Keyed)
				postMark = true
				continue
			}
			var step []window.KeyedResult
			if q.discardRep {
				mergeBuf = mergeStep(chunks, i, mergeBuf[:0])
				step = mergeBuf
			} else {
				base := len(rep.Keyed)
				rep.Keyed = mergeStep(chunks, i, rep.Keyed)
				step = rep.Keyed[base:]
			}
			for _, kr := range step {
				q.telem.noteResult(kr.Result, postMark)
				q.tracer.Emit(int64(kr.EmitArrival), -1, kr.Idx, int64(kr.Start), int64(kr.End), kr.Key, kr.Count, int64(kr.Latency()))
				if q.keyedSink != nil {
					q.keyedSink(kr)
				}
				if sink != nil {
					sink(kr.Result)
				}
			}
		}
		s.pool.Put(rb[:0])
	}
}

func (s *shardStage) observe(t stream.Tuple, now stream.Time) {
	s.push(released{tuple: t, now: now})
}

func (s *shardStage) push(r released) {
	s.cur = append(s.cur, r)
	if len(s.cur) >= s.batch {
		s.endStep()
	}
}

// endStep hands the batch in progress to every shard and queues it for the
// merger; after a cancellation it only drops it (close later unblocks any
// worker still holding a chunk).
func (s *shardStage) endStep() {
	if len(s.cur) == 0 {
		return
	}
	rb := s.cur
	s.cur = s.pool.Get().([]released)[:0]
	for i := range s.in {
		select {
		case s.in[i] <- rb:
		case <-s.ctx.Done():
			return
		}
	}
	select {
	case s.pending <- rb:
		s.x.q.telem.noteReleaseBatch(len(rb), len(s.pending)*s.batch)
	case <-s.ctx.Done():
	}
}

// finish ships the mark, the flushed tuples and the flush, then waits for
// the merger, so everything is delivered when Exec.Finish returns.
func (s *shardStage) finish(flushed []stream.Tuple, now stream.Time) {
	s.push(released{now: now, mark: true})
	for _, t := range flushed {
		s.push(released{tuple: t, now: now})
	}
	s.push(released{now: now, flush: true})
	s.endStep()
	s.close()
}

// close ends the merger, then shuts the workers down: input channels are
// closed, any chunk still in flight is drained (a worker may be blocked
// handing over the output of a batch the merger abandoned), and the
// workers are joined. After close the per-shard operators are quiescent
// and stats may be read. Idempotent: finish calls it on a clean end, the
// core stage's defer on every other exit.
func (s *shardStage) close() {
	s.once.Do(func() {
		close(s.pending)
		<-s.merged
		for _, c := range s.in {
			close(c)
		}
		for _, c := range s.out {
			for range c {
			}
		}
		s.wg.Wait()
	})
}

// stats sums the per-shard operator counters. Only valid after close.
func (s *shardStage) stats() window.OpStats {
	var sum window.OpStats
	for _, op := range s.ops {
		st := op.Stats()
		sum.TuplesIn += st.TuplesIn
		sum.LateTuples += st.LateTuples
		sum.LateDrops += st.LateDrops
		sum.LateRefined += st.LateRefined
		sum.Emitted += st.Emitted
		sum.Refinements += st.Refinements
		sum.EmptyEmitted += st.EmptyEmitted
		sum.EmitFailed += st.EmitFailed
	}
	return sum
}
