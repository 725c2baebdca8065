package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/fanout"
	"repro/internal/fiba"
	"repro/internal/fleet"
	"repro/internal/netstream"
	"repro/internal/stream"
	"repro/internal/window"
)

// The layer replay pushes a workload's own items, 256 at a time and on
// one goroutine, through each layer's public API and times the calls from
// outside. It is what decomposes the end-to-end number: nothing inside the
// program is instrumented. Every timed call is a span; spans of the same
// 256 items share a batch id across layers.

const (
	replayBatch = 256     // netstream's connBatch: what one Publish carries
	replayMax   = 200_000 // tuples of each source a replay pass consumes
)

// span is one timed call into a layer.
type span struct {
	name   string
	source string
	start  time.Duration // since the replay's epoch
	end    time.Duration
	parent int   // index of the enclosing span, -1 for a pass root
	batch  int64 // batch id shared across layers, -1 for a pass root
}

type replay struct {
	w     workload
	refs  []*reference
	feeds map[string]*feed

	epoch time.Time
	spans []span
	// items are each source's decoded replay items: the decode pass
	// produces them and every later pass consumes them, as in the server.
	items map[string][]stream.Item
	// released are each query's handler output with the per-batch end
	// offsets, produced by the handler pass for the window and fiba passes.
	released map[string]*releasedRun
}

type releasedRun struct {
	tuples []stream.Tuple
	ends   []int         // ends[b] = len(tuples) after batch b
	now    []stream.Time // arrival clock after batch b
}

func newReplay(w workload, refs []*reference, feeds map[string]*feed) *replay {
	return &replay{w: w, refs: refs, feeds: feeds,
		// Sized so span bookkeeping never allocates inside a counted pass.
		spans:    make([]span, 0, 1<<18),
		items:    map[string][]stream.Item{},
		released: map[string]*releasedRun{},
	}
}

func (r *replay) begin(name, source string, parent int, batch int64) int {
	r.spans = append(r.spans, span{name: name, source: source, parent: parent, batch: batch, start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

func (r *replay) finish(i int) time.Duration {
	r.spans[i].end = time.Since(r.epoch)
	return r.spans[i].end - r.spans[i].start
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// refsOn returns the references bound to one source.
func (r *replay) refsOn(source string) []*reference {
	var out []*reference
	for _, ref := range r.refs {
		if ref.def.source == source {
			out = append(out, ref)
		}
	}
	return out
}

// perTuple divides, reporting zero work as zero.
func perTuple(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(n)
}

// run executes every pass and fills the replay-sourced rows of out.
func (r *replay) run(scratch string, out map[string]float64) error {
	r.epoch = time.Now()
	if err := r.passNetstream(out); err != nil {
		return err
	}
	if err := r.passFleet(out); err != nil {
		return err
	}
	if err := r.passFanout(out); err != nil {
		return err
	}
	if err := r.passHandler(out); err != nil {
		return err
	}
	r.passWindow(out)
	r.passFiba(out)
	if err := r.passDurable(scratch, out); err != nil {
		return err
	}
	return r.passCQ(out)
}

// passNetstream decodes each source's wire bytes back into items.
func (r *replay) passNetstream(out map[string]float64) error {
	var decode, encode time.Duration
	var n, encoded, wireBytes int
	var allocs uint64
	for _, s := range r.w.sources {
		f := r.feeds[s.name]
		ticks := f.replayTicks()
		count, size := ticks*f.perTick, f.chunkEnd[ticks-1]
		wire := append(netstream.AppendHello(nil, s.name, "bench"), f.wire[:size]...)
		items := make([]stream.Item, 0, count)
		d := netstream.NewDecoder(bytes.NewReader(wire))
		if err := d.Hello(); err != nil {
			return err
		}
		root := r.begin("replay netstream.Decoder.Next", s.name, -1, -1)
		before := mallocs()
		for b := 0; len(items) < count; b++ {
			sp := r.begin("netstream.Decoder.Next", s.name, root, int64(b))
			for i := 0; i < replayBatch && len(items) < count; i++ {
				it, ok, err := d.Next()
				if err != nil || !ok {
					return fmt.Errorf("replay decode %s: ok=%v err=%v", s.name, ok, err)
				}
				items = append(items, it)
			}
			decode += r.finish(sp)
		}
		allocs += mallocs() - before
		r.finish(root)
		r.items[s.name] = items
		n += count
		wireBytes += size
		encode += time.Duration(f.encodeNS)
		encoded += len(f.tuples)
	}
	out["netstream.encode_ns_per_tuple"] = perTuple(encode, encoded)
	out["netstream.decode_ns_per_tuple"] = perTuple(decode, n)
	out["netstream.decode_allocs_per_tuple"] = float64(allocs) / float64(n)
	out["netstream.bytes_per_tuple"] = float64(wireBytes) / float64(n)
	return nil
}

// batches cuts items into replayBatch-sized runs.
func batches(items []stream.Item) [][]stream.Item {
	var out [][]stream.Item
	for len(items) > 0 {
		k := min(replayBatch, len(items))
		out = append(out, items[:k])
		items = items[k:]
	}
	return out
}

// passFleet publishes through the fleet registry into a source ring and
// takes every batch back out through one subscription per bound query,
// exactly the hop the listener and the query pumps make.
func (r *replay) passFleet(out map[string]float64) error {
	ctx := context.Background()
	var publish, next time.Duration
	var published, consumed int
	for _, s := range r.w.sources {
		reg := fleet.NewRegistry(fleet.Options{})
		src := reg.Source(s.name)
		var subs []*fanout.Sub
		for _, ref := range r.refsOn(s.name) {
			subs = append(subs, src.Attach(ref.def.name))
		}
		root := r.begin("replay fleet.Registry.Publish", s.name, -1, -1)
		for b, items := range batches(r.items[s.name]) {
			prov := stream.BatchProv{BatchID: uint64(b + 1), SendMS: 1}
			sp := r.begin("fleet.Registry.Publish", s.name, root, int64(b))
			err := reg.Publish(s.name, "bench", items, prov)
			publish += r.finish(sp)
			if err != nil {
				return err
			}
			published += len(items)
			for _, sub := range subs {
				sp := r.begin("fanout.Sub.NextBatchProv", s.name, root, int64(b))
				got, seq, _, ok, err := sub.NextBatchProv(ctx)
				if err != nil || !ok {
					return fmt.Errorf("replay ring %s: ok=%v err=%v", s.name, ok, err)
				}
				sub.Release(seq)
				next += r.finish(sp)
				consumed += len(got)
			}
		}
		r.finish(root)
		reg.Close()
	}
	out["fleet.publish_ns_per_tuple"] = perTuple(publish, published)
	out["fanout.next_ns_per_tuple"] = perTuple(next, consumed)
	return nil
}

// passFanout times the bare ring publish under the workload's fan-out
// (one subscriber per bound query), without the registry's copy.
func (r *replay) passFanout(out map[string]float64) error {
	ctx := context.Background()
	var publish time.Duration
	var published int
	for _, s := range r.w.sources {
		ring := fanout.New(fanout.Options{Ring: 256})
		var subs []*fanout.Sub
		for _, ref := range r.refsOn(s.name) {
			subs = append(subs, ring.Subscribe(ref.def.name, fanout.ShedOldest))
		}
		root := r.begin("replay fanout.Broadcast.PublishProv", s.name, -1, -1)
		for b, items := range batches(r.items[s.name]) {
			buf := append(ring.Get(), items...)
			sp := r.begin("fanout.Broadcast.PublishProv", s.name, root, int64(b))
			err := ring.PublishProv(ctx, buf, stream.BatchProv{BatchID: uint64(b + 1), SendMS: 1})
			publish += r.finish(sp)
			if err != nil {
				return err
			}
			published += len(items)
			for _, sub := range subs {
				_, seq, ok, err := sub.NextBatch(ctx)
				if err != nil || !ok {
					return fmt.Errorf("replay ring %s: ok=%v err=%v", s.name, ok, err)
				}
				sub.Release(seq)
			}
		}
		r.finish(root)
		ring.Close()
	}
	out["fanout.publish_ns_per_tuple"] = perTuple(publish, published)
	return nil
}

// insertAll drives one handler over a source's batches, recording what it
// releases. Adaptive handlers have no batch path and take items one by
// one, as they do in the server.
func (r *replay) insertAll(name, source string, h buffer.Handler) (*releasedRun, time.Duration, uint64) {
	items := r.items[source]
	run := &releasedRun{tuples: make([]stream.Tuple, 0, len(items)+1)}
	bs := batches(items)
	run.ends, run.now = make([]int, 0, len(bs)), make([]stream.Time, 0, len(bs))
	scratch := make([]int, 0, replayBatch)
	var total time.Duration
	var now stream.Time
	root := r.begin("replay "+name, source, -1, -1)
	before := mallocs()
	for b, batch := range bs {
		sp := r.begin(name, source, root, int64(b))
		run.tuples, scratch = buffer.InsertBatch(h, batch, run.tuples, scratch[:0])
		total += r.finish(sp)
		for _, it := range batch {
			if !it.Heartbeat && it.Tuple.Arrival > now {
				now = it.Tuple.Arrival
			}
		}
		run.ends, run.now = append(run.ends, len(run.tuples)), append(run.now, now)
	}
	allocs := mallocs() - before
	r.finish(root)
	return run, total, allocs
}

// passHandler replays every query's disorder handler: the fixed-slack
// buffer, or the adaptive controller (then the buffer rows describe a
// fixed K-slack at the controller's mean K, its share of the core).
func (r *replay) passHandler(out map[string]float64) error {
	var bufT, coreT, minkT, estT time.Duration
	var bufN, coreN, minkN, estN int
	var bufAllocs uint64
	var adaptations, kSum, kSamples float64
	var depthMax, stragglers, inserted float64
	for _, ref := range r.refs {
		h, err := ref.stmt.BuildHandler()
		if err != nil {
			return err
		}
		n := len(r.items[ref.def.source])
		full := ref.rep.Handler // the whole reference run's counters
		depthMax = max(depthMax, float64(full.MaxHeld))
		stragglers += float64(full.Stragglers)
		inserted += float64(full.Inserted)
		aq, adaptive := ref.handler.(*core.AQKSlack)
		if !adaptive {
			run, t, allocs := r.insertAll("buffer.InsertBatch", ref.def.source, h)
			r.released[ref.def.name] = run
			bufT, bufN, bufAllocs = bufT+t, bufN+n, bufAllocs+allocs
			continue
		}
		run, t, _ := r.insertAll("core.AQKSlack.Insert", ref.def.source, h)
		r.released[ref.def.name] = run
		coreT, coreN = coreT+t, coreN+n
		adaptations += float64(aq.Quality().Adaptations)
		kMean := stream.Time(0)
		if tr := aq.Trace(); len(tr) > 0 {
			var sum float64
			for _, ks := range tr {
				sum += float64(ks.K)
			}
			kMean = stream.Time(sum / float64(len(tr)))
			kSum, kSamples = kSum+sum, kSamples+float64(len(tr))
		}
		_, t, allocs := r.insertAll("buffer.InsertBatch", ref.def.source, buffer.NewKSlack(kMean))
		bufT, bufN, bufAllocs = bufT+t, bufN+n, bufAllocs+allocs

		// The controller's two model queries, on an estimator fed this
		// stream's own lateness and values.
		est := core.NewEstimator(ref.stmt.Spec, ref.stmt.Agg, core.EstimatorConfig{Seed: 1})
		var clock stream.Time
		for _, it := range r.items[ref.def.source] {
			if it.Heartbeat {
				continue
			}
			clock = max(clock, it.Tuple.TS)
			est.ObserveTuple(float64(clock-it.Tuple.TS), it.Tuple.Value)
		}
		if res := ref.rep.Results; len(res) > 0 {
			est.ObserveWindowCount(res[len(res)/2].Count)
		}
		root := r.begin("replay core.Estimator", ref.def.source, -1, -1)
		for i := 0; i < 20; i++ {
			sp := r.begin("core.Estimator.MinK", ref.def.source, root, -1)
			est.MinK(0.8*ref.stmt.Quality, 64*ref.stmt.Spec.Size)
			minkT += r.finish(sp)
			minkN++
		}
		for i := 0; i < 200; i++ {
			sp := r.begin("core.Estimator.EstimateErr", ref.def.source, root, -1)
			est.EstimateErr(kMean)
			estT += r.finish(sp)
			estN++
		}
		r.finish(root)
	}
	out["buffer.insert_ns_per_tuple"] = perTuple(bufT, bufN)
	out["buffer.insert_allocs_per_tuple"] = 0
	if bufN > 0 {
		out["buffer.insert_allocs_per_tuple"] = float64(bufAllocs) / float64(bufN)
	}
	out["buffer.depth_max"] = depthMax
	out["buffer.stragglers_pct"] = 0
	if inserted > 0 {
		out["buffer.stragglers_pct"] = 100 * stragglers / inserted
	}
	out["core.insert_ns_per_tuple"] = perTuple(coreT, coreN)
	out["core.mink_ns_per_call"] = perTuple(minkT, minkN)
	out["core.estimate_err_ns_per_call"] = perTuple(estT, estN)
	out["core.adaptations"] = adaptations
	out["core.k_ms_mean"] = 0
	if kSamples > 0 {
		out["core.k_ms_mean"] = kSum / kSamples
	}
	return nil
}

// slideCrossings walks released tuples and reports, per tuple, whether it
// is the first past a slide boundary — the call on which a window
// operator emits and an aggregation tree is queried and evicted.
func slideCrossings(tuples []stream.Tuple, slide stream.Time) func(i int) bool {
	edge := stream.Time(-1)
	return func(i int) bool {
		if b := tuples[i].TS / slide; b > edge {
			first := edge < 0
			edge = b
			return !first
		}
		return false
	}
}

// passWindow replays each query's window operator over what its handler
// released. Calls that cross a slide boundary are timed on their own so
// emission cost separates from the per-tuple insert.
func (r *replay) passWindow(out map[string]float64) {
	var total, crossT time.Duration
	var calls, crossCalls, windows int
	var allocs uint64
	var results float64
	for _, ref := range r.refs {
		run := r.released[ref.def.name]
		op := window.NewOpWithCore(ref.stmt.Spec, ref.stmt.Agg, window.DropLate, 0, window.CoreFiba)
		crossing := slideCrossings(run.tuples, ref.stmt.Spec.Slide)
		res := make([]window.Result, 0, 64)
		root := r.begin("replay window.Op.Observe", ref.def.source, -1, -1)
		before := mallocs()
		lo := 0
		for b, hi := range run.ends {
			sp := r.begin("window.Op.Observe", ref.def.source, root, int64(b))
			for i := lo; i < hi; i++ {
				if crossing(i) {
					t0 := time.Now()
					res = op.Observe(run.tuples[i], run.now[b], res[:0])
					crossT += time.Since(t0)
					crossCalls++
				} else {
					res = op.Observe(run.tuples[i], run.now[b], res[:0])
				}
				windows += len(res)
			}
			total += r.finish(sp)
			calls += hi - lo
			lo = hi
		}
		allocs += mallocs() - before
		r.finish(root)
		results += float64(ref.rep.PreFlush)
	}
	out["window.observe_ns_per_tuple"] = perTuple(total, calls)
	out["window.observe_allocs_per_tuple"] = 0
	if calls > 0 {
		out["window.observe_allocs_per_tuple"] = float64(allocs) / float64(calls)
	}
	// Emission cost: what a boundary-crossing call costs beyond an
	// ordinary one, spread over the windows those calls emitted.
	out["window.emit_ns_per_window"] = 0
	if plain := calls - crossCalls; windows > 0 && plain > 0 {
		ordinary := float64((total - crossT).Nanoseconds()) / float64(plain)
		out["window.emit_ns_per_window"] = max(0, (float64(crossT.Nanoseconds())-ordinary*float64(crossCalls))/float64(windows))
	}
	out["window.results_out"] = results
}

// passFiba drives the aggregation tree directly with each query's window
// shape: insert every released tuple, and at each slide boundary read the
// closing window's range and evict the slide that left every window.
func (r *replay) passFiba(out map[string]float64) {
	var insertT, evictT, rangeT time.Duration
	var inserts, evicted, ranges, evicts int
	var evictAllocs uint64
	for _, ref := range r.refs {
		run := r.released[ref.def.name]
		spec := ref.stmt.Spec
		tree := fiba.New[float64](fiba.SumMonoid{})
		crossing := slideCrossings(run.tuples, spec.Slide)
		root := r.begin("replay fiba.Tree", ref.def.source, -1, -1)
		lo := 0
		for b, hi := range run.ends {
			sp := r.begin("fiba.Tree.Insert", ref.def.source, root, int64(b))
			var inner time.Duration
			for i := lo; i < hi; i++ {
				t := run.tuples[i]
				if crossing(i) {
					// Everything in this block, bookkeeping included, is
					// taken out of the enclosing insert span.
					c0 := time.Now()
					end := t.TS / spec.Slide * spec.Slide
					rs := r.begin("fiba.Tree.RangeAgg", ref.def.source, sp, int64(b))
					tree.RangeAgg(end-spec.Size, end)
					rangeT += r.finish(rs)
					ranges++

					before := mallocs()
					es := r.begin("fiba.Tree.EvictBelow", ref.def.source, sp, int64(b))
					evicted += tree.EvictBelow(end - spec.Size + spec.Slide)
					evictT += r.finish(es)
					evictAllocs += mallocs() - before
					evicts++
					inner += time.Since(c0)
				}
				tree.Insert(fiba.Key{TS: t.TS, Seq: t.Seq}, t.Value)
			}
			insertT += r.finish(sp) - inner
			inserts += hi - lo
			lo = hi
		}
		r.finish(root)
	}
	out["fiba.insert_ns_per_tuple"] = perTuple(insertT, inserts)
	out["fiba.evict_ns_per_tuple"] = perTuple(evictT, evicted)
	out["fiba.range_ns_per_call"] = perTuple(rangeT, ranges)
	out["fiba.allocs_per_evict"] = 0
	if evicts > 0 {
		out["fiba.allocs_per_evict"] = float64(evictAllocs) / float64(evicts)
	}
}

// passDurable journals the first query's items the way the server's
// worker does (append a batch, group-commit), then measures a recovery
// scan of that journal and one snapshot of real handler+window state.
// Workloads without durability do no journal work and report zeros.
func (r *replay) passDurable(scratch string, out map[string]float64) error {
	for _, k := range []string{"durable.append_ns_per_tuple", "durable.bytes_per_tuple", "durable.snapshot_ms", "durable.recovery_ms"} {
		out[k] = 0
	}
	if !r.w.durable {
		return nil
	}
	ref := r.refs[0]
	items := r.items[ref.def.source]
	dir, err := os.MkdirTemp(scratch, "replay-durable-")
	if err != nil {
		return err
	}
	const commitEvery = 64 // aqserver's -batch default, its CommitEvery
	log, err := durable.Open(durable.Options{Dir: dir, CommitEvery: commitEvery})
	if err != nil {
		return err
	}
	var appendT time.Duration
	root := r.begin("replay durable.QueryLog", ref.def.source, -1, -1)
	for b, batch := range batches(items) {
		sp := r.begin("durable.QueryLog.AppendItems", ref.def.source, root, int64(b))
		err := log.AppendItems(batch)
		appendT += r.finish(sp)
		if err != nil {
			log.Close()
			return err
		}
		sp = r.begin("durable.QueryLog.Commit", ref.def.source, root, int64(b))
		err = log.Commit()
		appendT += r.finish(sp)
		if err != nil {
			log.Close()
			return err
		}
	}
	r.finish(root)
	if err := log.Close(); err != nil {
		return err
	}
	var journal int64
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return err
	}
	for _, seg := range segs {
		st, err := os.Stat(seg)
		if err != nil {
			return err
		}
		journal += st.Size()
	}
	out["durable.append_ns_per_tuple"] = perTuple(appendT, len(items))
	out["durable.bytes_per_tuple"] = float64(journal) / float64(len(items))

	// Recovery: reopen and scan the whole journal back into items.
	sp := r.begin("durable.Open (recovery)", ref.def.source, -1, -1)
	log, err = durable.Open(durable.Options{Dir: dir, CommitEvery: commitEvery})
	out["durable.recovery_ms"] = float64(r.finish(sp)) / float64(time.Millisecond)
	if err != nil {
		return err
	}
	defer log.Close()
	rec := log.TakeRecovery()
	if rec == nil || len(rec.Suffix) != len(items) {
		return fmt.Errorf("replay durable: recovered %v of %d items", rec, len(items))
	}

	// Snapshot: the state a query holds after absorbing those items.
	h, err := ref.stmt.BuildHandler()
	if err != nil {
		return err
	}
	op := window.NewOpWithCore(ref.stmt.Spec, ref.stmt.Agg, window.DropLate, 0, window.CoreFiba)
	var rel []stream.Tuple
	var res []window.Result
	var now stream.Time
	for _, it := range rec.Suffix {
		now = max(now, it.Tuple.Arrival)
		rel = h.Insert(it, rel[:0])
		for _, t := range rel {
			res = op.Observe(t, now, res[:0])
		}
	}
	sp = r.begin("durable snapshot", ref.def.source, -1, -1)
	records, n, err := log.CutForSnapshot()
	if err != nil {
		return err
	}
	hs, err := durable.SaveHandler(h)
	if err != nil {
		return err
	}
	ops := op.State()
	emit, have := op.EmitProgress()
	err = log.WriteSnapshot(&durable.Snapshot{Query: ref.def.name, Records: records, Items: n,
		Now: now, Handler: hs, Op: &ops, EmitProgress: emit, HaveEmit: have})
	out["durable.snapshot_ms"] = float64(r.finish(sp)) / float64(time.Millisecond)
	return err
}

// passCQ prices the same job on the engine's three executors: the
// synchronous reference (the upper bound for the server), the batched
// concurrent pipeline, and the shared-ring fan-out.
func (r *replay) passCQ(out map[string]float64) error {
	ctx := context.Background()
	var runT, concT, sharedT time.Duration
	var runN, concN, sharedN int
	for _, ref := range r.refs {
		runT += time.Duration(ref.runNS)
		runN += len(ref.feed.tuples)
	}
	build := func(ref *reference, src stream.ErrSource) (*cq.AggQuery, error) {
		h, err := ref.stmt.BuildHandler()
		if err != nil {
			return nil, err
		}
		return cq.NewFallible(src).Handle(h).Window(ref.stmt.Spec, ref.stmt.Agg).
			AggCore(window.CoreFiba).Batch(64).DiscardReport(), nil
	}
	for _, ref := range r.refs {
		items := r.items[ref.def.source]
		q, err := build(ref, stream.AsErrSource(stream.NewSliceSource(items)))
		if err != nil {
			return err
		}
		sp := r.begin("cq.RunConcurrent", ref.def.source, -1, -1)
		_, err = q.RunConcurrent(ctx, nil)
		concT += r.finish(sp)
		if err != nil {
			return err
		}
		concN += len(items)
	}
	for _, s := range r.w.sources {
		items := r.items[s.name]
		var qs []*cq.AggQuery
		for _, ref := range r.refsOn(s.name) {
			q, err := build(ref, nil)
			if err != nil {
				return err
			}
			qs = append(qs, q)
		}
		sp := r.begin("cq.RunShared", s.name, -1, -1)
		_, err := cq.RunShared(ctx, stream.AsErrSource(stream.NewSliceSource(items)),
			cq.SharedOpts{Ring: 256, Batch: replayBatch}, qs...)
		sharedT += r.finish(sp)
		if err != nil {
			return err
		}
		sharedN += len(items) * len(qs)
	}
	out["cq.run_ns_per_tuple"] = perTuple(runT, runN)
	out["cq.run_concurrent_ns_per_tuple"] = perTuple(concT, concN)
	out["cq.run_shared_ns_per_tuple"] = perTuple(sharedT, sharedN)
	return nil
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it
// in Perfetto). A span's self time is its duration minus the part its
// child spans cover.
func (r *replay) writeChromeTrace(path string) error {
	childT := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			childT[s.parent] += s.end - s.start
		}
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{Name: s.name, Cat: s.source, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start),
			PID: 1, TID: 1, Args: map[string]any{
				"span": i, "parent": s.parent, "batch": s.batch, "source": s.source,
				"self_us": us(s.end - s.start - childT[i]),
			}}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns",
		"otherData": map[string]any{"workload": r.w.name, "batch": replayBatch}})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
