package cq

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/buffer"
	"repro/internal/durable"
	"repro/internal/obs/tracez"
	"repro/internal/stream"
	"repro/internal/window"
)

// Exec is the one executor: a synchronous, single-writer step core that
// applies batches of accepted items to a query's disorder handler and
// window operator. Run, RunConcurrent (private or shared ring), RunShared
// and cmd/aqserver's runners are drivers: they decide where items
// come from and what an error means, and hand the items to Step.
//
// One Step is: journal the batch → the disorder pass: insert the items into
// the handler, advancing the arrival clock, and keep what they released with
// the clock each tuple was released at → the window pass: hand the window
// stage that run whole → suppress emissions below the recovered floor →
// report / telemetry / tracer / sink → sync the handler's trace and
// counters, once → journal the emission cursor → snapshot when due. A run,
// not a tuple, is the unit of work between handler and operator, which is
// where the time goes: see Resume. Crash recovery is the same two passes
// over the journal suffix with nothing journaled. Every state change happens
// inside Step on the caller's goroutine, so a snapshot is a plain call at a
// batch boundary: the journal covers exactly the items the captured state
// has absorbed.
//
// An Exec is not safe for concurrent use; its driver serializes every call
// (cmd/aqserver does so with the runner mutex).
type Exec struct {
	q       *AggQuery
	raw     buffer.Handler // as configured; what Handler returns and the disorder pass feeds
	handler buffer.Handler // raw, or its traced wrapper
	op      *window.Op     // plain operator; nil for grouped queries
	win     windowStage
	sink    func(window.Result)
	rep     *AggReport

	now      stream.Time // arrival clock: max arrival/watermark applied so far
	dis      disorderAcc // intake-side disorder measurement (see accept)
	released int         // tuples the handler released since the last sync
	scratch  []window.Result
	emitted  int // results delivered, after floor suppression

	// The work in flight: pend[pos:] is journaled (or is the journal) and
	// still to be inserted, and rel is what the items before pos released
	// and how far window stage and sink have got with it. Step sets pend and
	// Resume works both off, so a driver that isolates panics can say where
	// one hit and carry on behind it. rel is a pointer to keep the struct in
	// its size class (TestExecSizeClass).
	stage string
	pend  []stream.Item
	pos   int
	rel   *released

	// Durability (nil log without Durable).
	log       *durable.QueryLog
	decorate  func(*durable.Snapshot)
	floor     int64 // primary emissions below it were delivered before the crash
	haveFloor bool
	flushing  bool // Finish reached: emissions are flush-forced
}

// released is the run between the two passes of a step: the tuples one chunk
// of pending items released, in release order, and the window stage's
// progress through them.
type released struct {
	ts   []stream.Tuple
	nows []stream.Time // nows[i]: the arrival clock when ts[i] was released
	ends []int         // ends[j]: len(ts) once the chunk's item j was inserted
	base int           // the chunk is pend[base : base+len(ends)]
	pos  int           // ts[pos:] is what the window stage has not been handed
	sent int           // the stage's results before sent have been delivered
}

// maxChunk bounds the items one disorder pass inserts, and with them the
// release buffer: a ring batch is far smaller, but a recovery's journal
// suffix is one pending batch of up to a snapshot interval's items.
const maxChunk = 4096

// Pipeline positions, named in stage-panic errors (InFlight reports them as
// trace stages).
const (
	stageSource   = "source"
	stageDisorder = "disorder"
	stageWindow   = "window"
)

// windowStage is the seam between the step core and the window operator:
// the plain operator, or the keyed operator of a grouped query. Both are
// evaluated in place, on the stepping goroutine, whatever the driver, and
// both take a released run whole — there is no per-tuple entry.
type windowStage interface {
	// observeRun delivers the results a panic cut off from the sink (from
	// r.sent), hands the operator r.ts[r.pos:] with their nows — r.pos
	// moves past a tuple before the operator touches it — and delivers what
	// that emitted. After it returns nothing is parked: not in r, not in
	// the operator, not short of the sink.
	observeRun(r *released)
	// finish records the PreFlush boundary, observes the run the handler's
	// final flush released and forces the remaining windows out.
	finish(r *released, now stream.Time)
	stats() window.OpStats
}

// NewExec builds the step core for a query that has no source of its own:
// the caller is the driver and feeds Step. Results reach sink (may be nil;
// a grouped query's sink sees the Result embedded in each KeyedResult, its
// SinkKeyed callback the whole of it) from inside Step, Resume and Finish,
// on the caller's goroutine. A Durable query whose log holds prior state
// comes back with the snapshot restored and the journal suffix pending.
// Replaying it — duplicates suppressed, the rest delivered to sink like live
// results — is Resume: a driver with a panic policy calls it under that
// policy before the first Step; otherwise the first Step or Finish does.
func NewExec(q *AggQuery, sink func(window.Result)) (*Exec, error) {
	if q.source != nil || q.shared != nil {
		return nil, errors.New("cq: NewExec drives a query built without a source (Run and RunConcurrent own theirs)")
	}
	if err := q.validateShape(); err != nil {
		return nil, err
	}
	return newExec(q, sink)
}

// newExec builds the core for a validated query.
func newExec(q *AggQuery, sink func(window.Result)) (*Exec, error) {
	x := &Exec{q: q, sink: sink, rep: &AggReport{}, stage: stageSource, rel: &released{}}
	x.raw = q.handler
	if x.raw == nil {
		x.raw = buffer.Zero()
	}
	x.handler = q.traceHandler(x.raw)
	if q.grouped {
		x.win = &keyedStage{x: x, op: window.NewKeyedOp(q.spec, q.agg, q.policy, q.refineFor)}
	} else {
		x.op = window.NewOp(q.spec, q.agg, q.policy, q.refineFor)
		x.win = plainStage{x}
	}
	if q.durable != nil {
		if err := x.restore(); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// accept is every driver's intake for one pulled item: filter and map, then
// the input record (KeepInput) and the inline disorder measurement. keep is
// false for a filtered-out tuple.
func (x *Exec) accept(it stream.Item) (out stream.Item, keep bool) {
	if it.Heartbeat {
		return it, true
	}
	t, keep := x.q.transform(it.Tuple)
	if !keep {
		return it, false
	}
	x.noteInput(t)
	return stream.DataItem(t), true
}

// noteInput records one post-transform tuple as query input.
func (x *Exec) noteInput(t stream.Tuple) {
	if x.q.keepInput {
		x.rep.Input = append(x.rep.Input, t)
	}
	x.dis.observe(t)
}

// Step applies one batch of accepted items, in order. The batch is only
// read, and only until Step (or the Resume that completes it) returns, so a
// borrowed ring batch can be handed over whole. A non-nil error is a
// durability failure — journal append, emission cursor, snapshot — returned
// after the batch has been applied: abort or carry on is the driver's policy.
func (x *Exec) Step(batch []stream.Item) error {
	if x.pend != nil {
		x.Resume() // pending work is never dropped: first come, first applied
	}
	var err error
	if x.log != nil {
		// Journal before the handler sees the batch: a crash after this
		// point replays it, a crash before loses items nothing acted on.
		// Heartbeats are journaled too — they move the arrival clock.
		if jerr := x.log.AppendItems(batch); jerr != nil {
			err = fmt.Errorf("cq: journal: %w", jerr)
		}
	}
	x.pend, x.pos = batch, 0
	x.Resume()
	if x.log != nil {
		if perr := x.noteEmitProgress(); perr != nil && err == nil {
			err = perr
		}
		if x.log.ShouldSnapshot() {
			if serr := x.snapshot(); serr != nil && err == nil {
				err = serr
			}
		}
	}
	return err
}

// Resume applies what is pending, in two passes a chunk: the disorder pass
// inserts the chunk's items into the handler and stamps every released tuple
// with the arrival clock of the item that released it; the window pass hands
// the window stage that run. It is the body of every Step, and what a
// panic-isolating driver calls itself. After NewExec recovered prior state,
// the journal suffix is pending and Resume is the replay — nothing is
// journaled again, it is the journal. And after recovering a panic raised
// inside Step or Resume, Resume carries on behind it: the rest of the batch
// is already journaled, so abandoning it would make the journal lie. A panic
// in the disorder pass costs the item in flight; one in the window pass at
// most the released tuple or the result in flight, and everything released
// or emitted behind it is observed and delivered first. (The window operator
// stores a tuple before anything in it can fail, and a window whose emission
// panicked is emitted by the next advance, so there the cost is nothing.)
// The emission cursor and snapshot check of an interrupted Step ride on the
// next one.
//
// Why runs: taking a batch apart into one handler call and one operator call
// per tuple — each with its copies of a 64-byte Item, three divisions to
// place the tuple among the windows and a chain of frames down to the sink —
// cost more than the work itself, when 99 released tuples in 100 are late
// for nothing and close nothing (window.Op.ObserveRun).
func (x *Exec) Resume() {
	if x.stage != stageSource {
		// Behind a panic: first what it left in the release buffer, parked in
		// the operator or short of the sink. (A pass that returns leaves
		// nothing, so every other call starts with the disorder pass.)
		x.stage = stageWindow
		x.win.observeRun(x.rel)
	}
	for x.pos < len(x.pend) {
		x.stage = stageDisorder
		x.insertChunk(x.pend[x.pos:min(x.pos+maxChunk, len(x.pend))])
		x.stage = stageWindow
		x.win.observeRun(x.rel)
	}
	x.sync()
	x.stage, x.pend = stageSource, nil
}

// insertChunk is the disorder pass over one chunk of the pending items. A
// handler that is exactly a *buffer.KSlack — its concrete type, looked up
// behind the traced wrapper; a type that embeds one and overrides Insert
// inherits InsertBatch and must not be short-circuited — takes the chunk in
// one call. Every other handler takes it item by item, x.pos moving first so
// that a panic leaves the item behind, not the batch.
func (x *Exec) insertChunk(chunk []stream.Item) {
	r := x.rel
	r.ts, r.nows, r.ends = r.ts[:0], r.nows[:0], r.ends[:0]
	r.base, r.pos = x.pos, 0
	if tr, ok := x.handler.(*buffer.Traced); ok {
		tr.Advance(chunk)
	}
	if ks, ok := x.raw.(*buffer.KSlack); ok {
		x.pos += len(chunk)
		r.ts, r.ends = ks.InsertBatch(chunk, r.ts, r.ends)
		for i := range chunk {
			x.stamp(&chunk[i], r.ends[i])
		}
	} else {
		for i := range chunk {
			x.pos++
			r.ts = x.raw.Insert(chunk[i], r.ts)
			r.ends = append(r.ends, len(r.ts))
			x.stamp(&chunk[i], len(r.ts))
		}
	}
}

// stamp advances the arrival clock over one inserted item and counts and
// stamps the tuples its insertion released, rel.ts[len(rel.nows):end].
func (x *Exec) stamp(it *stream.Item, end int) {
	// Arrival is client-supplied on the wire and need not be monotone; the
	// clock is.
	at := it.Tuple.Arrival
	if it.Heartbeat {
		at = it.Watermark
	}
	x.now = max(x.now, at)
	r := x.rel
	x.released += end - len(r.nows)
	for len(r.nows) < end {
		r.nows = append(r.nows, x.now)
	}
}

// sync publishes the handler's activity once per step, not per item: the
// traced wrapper turns the deltas of the handler's cumulative stats into
// buffer events (N = count), and the released counter moves by what
// accumulated. A step a panic cut short skips it and loses nothing: its
// share rides on the sync of the Resume that carries on behind it.
func (x *Exec) sync() {
	if tr, ok := x.handler.(*buffer.Traced); ok {
		tr.Sync()
	}
	x.q.telem.noteReleased(x.released)
	x.released = 0
}

// InFlight reports where a panic raised inside Step or Resume hit: the
// trace stage (buffer or window) and the item being applied — in the buffer
// stage the item being inserted, in the window stage the item whose insertion
// released the last tuple the operator was handed (for a panic out of the
// sink that is the last tuple of the run: results are delivered behind it).
// It is the zero Item if the panic came from outside the two passes.
func (x *Exec) InFlight() (stage tracez.Stage, it stream.Item) {
	if x.stage == stageDisorder {
		if x.pos > 0 && x.pos <= len(x.pend) {
			it = x.pend[x.pos-1]
		}
		return tracez.StageBuffer, it
	}
	if r := x.rel; r.pos > 0 {
		if i := r.base + sort.SearchInts(r.ends, r.pos); i < r.base+len(r.ends) && i < len(x.pend) {
			it = x.pend[i]
		}
	}
	return tracez.StageWindow, it
}

// Finish ends the stream: results so far are marked progress-emitted
// (PreFlush), handler and operator are flushed through the same emission
// path, and the journal is committed. Flush-forced emissions are not
// journaled as emission progress: they exist only because the stream ended,
// and a continuation after recovery re-emits those windows in full.
func (x *Exec) Finish() error {
	if x.pend != nil {
		x.Resume()
	}
	x.stage = stageDisorder
	r := x.rel
	r.ts, r.nows, r.ends, r.pos = x.handler.Flush(r.ts[:0]), r.nows[:0], r.ends[:0], 0
	for range r.ts {
		r.nows = append(r.nows, x.now)
	}
	x.released += len(r.ts)
	x.sync()
	x.stage = stageWindow
	x.win.finish(r, x.now)
	x.q.tracer.Flush(int64(x.now))
	x.stage = stageSource
	if x.log != nil {
		if err := x.log.Commit(); err != nil {
			return fmt.Errorf("cq: journal: %w", err)
		}
	}
	return nil
}

// emit delivers the plain operator's results, x.scratch from rel.sent on:
// floor suppression first, so duplicates of pre-crash deliveries reach
// neither report, trace nor sink. The cursor moves before a result is
// delivered, so a panic out of telemetry, tracer or sink costs that result
// and the next pass delivers the ones behind it.
func (x *Exec) emit() {
	for r := x.rel; r.sent < len(x.scratch); {
		res := x.scratch[r.sent]
		r.sent++
		if x.suppress(res) {
			continue
		}
		x.emitted++
		if !x.q.discardRep {
			x.rep.Results = append(x.rep.Results, res)
		}
		x.q.telem.noteResult(res, x.flushing)
		x.q.tracer.Emit(int64(res.EmitArrival), res.Idx, int64(res.Start), int64(res.End), 0, res.Count, int64(res.Latency()))
		if x.sink != nil {
			x.sink(res)
		}
	}
}

// Report brings the handler, operator and disorder statistics up to date
// and returns the live report (not a copy).
func (x *Exec) Report() *AggReport {
	x.rep.Disorder = x.dis.finish()
	x.rep.Handler = x.handler.Stats()
	x.rep.Op = x.win.stats()
	return x.rep
}

// Now returns the arrival clock.
func (x *Exec) Now() stream.Time { return x.now }

// Handler returns the disorder handler the query was built with (buffer.Zero
// when none was set), for hosts that read its live state between steps.
func (x *Exec) Handler() buffer.Handler { return x.raw }

// panicErr converts a panic recovered around Step or Finish into the
// pipeline error naming the stage it hit.
func (x *Exec) panicErr(p any) error {
	return fmt.Errorf("cq: %s stage panicked: %v", x.stage, p)
}

// restore begins a durable execution: load the snapshot (if any) into
// handler and operator, resume the disorder accumulator and arrival clock,
// arm the emission floor and leave the journal suffix pending. The recovery
// is consumed from the log, so a second execution on the same open log
// starts clean.
func (x *Exec) restore() error {
	d := x.q.durable
	x.log, x.decorate = d.Log, d.Decorate
	rec := d.Log.TakeRecovery()
	if rec == nil || !rec.Recovered {
		return nil
	}
	if snap := rec.Snapshot; snap != nil {
		if snap.Handler != nil {
			if err := durable.RestoreHandler(x.handler, snap.Handler); err != nil {
				return err
			}
		}
		if snap.Op != nil {
			if err := x.op.Restore(*snap.Op); err != nil {
				return err
			}
		}
		x.dis.restore(snap.Disorder)
		x.now = snap.Now
	}
	x.floor, x.haveFloor = rec.EmitProgress, rec.HaveEmit
	x.rep.Recovery = &RecoveryInfo{
		FromSnapshot:     rec.Snapshot != nil,
		ReplayedItems:    len(rec.Suffix),
		EmitProgress:     rec.EmitProgress,
		HaveEmit:         rec.HaveEmit,
		TruncatedBytes:   rec.TruncatedBytes,
		TruncatedRecords: rec.TruncatedRecords,
	}
	// The journal suffix is left pending for the driver's Resume. Its items
	// were transformed before they were journaled; they still count as input.
	for _, it := range rec.Suffix {
		if !it.Heartbeat {
			x.noteInput(it.Tuple)
		}
	}
	x.pend, x.pos = rec.Suffix, 0
	x.q.tracer.Recovery(int64(x.now), len(rec.Suffix), x.floor, rec.TruncatedBytes)
	return nil
}

// suppress reports whether res duplicates a primary emission the previous
// process delivered durably. Refinements are never suppressed: they are
// corrections, idempotent by definition.
func (x *Exec) suppress(res window.Result) bool {
	if !x.haveFloor || res.Refinement || res.Idx >= x.floor {
		return false
	}
	x.rep.Recovery.SuppressedResults++
	return true
}

// noteEmitProgress journals the operator's emission cursor once per step;
// the log dedupes monotone repeats.
func (x *Exec) noteEmitProgress() error {
	emit, have := x.op.EmitProgress()
	if !have {
		return nil
	}
	if err := x.log.AppendEmitProgress(emit); err != nil {
		return fmt.Errorf("cq: journal: %w", err)
	}
	return nil
}

// snapshot cuts the journal and persists handler + operator state. Called
// at a step boundary, so the cut covers exactly the absorbed items (every
// driver's intake runs on the stepping goroutine, so the disorder
// accumulator is as of the batch's last item too).
func (x *Exec) snapshot() error {
	records, items, err := x.log.CutForSnapshot()
	if err != nil {
		return fmt.Errorf("cq: snapshot cut: %w", err)
	}
	hs, err := durable.SaveHandler(x.handler)
	if err != nil {
		return fmt.Errorf("cq: snapshot: %w", err)
	}
	ops := x.op.State()
	emit, have := x.op.EmitProgress()
	s := &durable.Snapshot{
		Records:      records,
		Items:        items,
		Now:          x.now,
		Disorder:     x.dis.cut(),
		Handler:      hs,
		Op:           &ops,
		EmitProgress: emit,
		HaveEmit:     have,
	}
	if x.decorate != nil {
		x.decorate(s)
	}
	if err := x.log.WriteSnapshot(s); err != nil {
		return fmt.Errorf("cq: snapshot: %w", err)
	}
	x.q.tracer.Snapshot(int64(x.now), records)
	return nil
}

// plainStage is the non-grouped window stage: one window.Op whose results
// go through Exec.emit.
type plainStage struct{ x *Exec }

func (s plainStage) observeRun(r *released) {
	x := s.x
	x.emit()
	x.scratch, r.sent = x.op.ObserveRun(r.ts, r.nows, &r.pos, x.scratch[:0]), 0
	x.emit()
}

func (s plainStage) finish(r *released, now stream.Time) {
	x := s.x
	x.rep.PreFlush, x.flushing = x.emitted, true
	s.observeRun(r)
	x.scratch, r.sent = x.op.Flush(now, x.scratch[:0]), 0
	x.emit()
}

func (s plainStage) stats() window.OpStats { return s.x.op.Stats() }

// keyedStage is the grouped window stage: one window.KeyedOp, whose results
// — in its canonical order, by window and then by key — are delivered like
// the plain stage's: report, telemetry, tracer, SinkKeyed, and the plain
// sink with the embedded Result. (Durable refuses grouped queries, so there
// is no emission floor to apply.) The operator appends straight to the
// report; under DiscardReport, to a scratch slice instead.
type keyedStage struct {
	x       *Exec
	op      *window.KeyedOp
	scratch []window.KeyedResult
}

// out is where the operator appends its next results; rel.sent indexes it.
// The scratch slice is emptied whenever everything in it has been delivered.
func (s *keyedStage) out() *[]window.KeyedResult {
	if !s.x.q.discardRep {
		return &s.x.rep.Keyed
	}
	if r := s.x.rel; r.sent == len(s.scratch) {
		s.scratch, r.sent = s.scratch[:0], 0
	}
	return &s.scratch
}

func (s *keyedStage) observeRun(r *released) {
	s.emit()
	dst := s.out()
	*dst = s.op.ObserveRun(r.ts, r.nows, &r.pos, *dst)
	s.emit()
}

func (s *keyedStage) finish(r *released, now stream.Time) {
	x := s.x
	x.rep.PreFlush, x.flushing = x.emitted, true
	s.observeRun(r)
	dst := s.out()
	*dst = s.op.Flush(now, *dst)
	s.emit()
}

// emit delivers the operator's results from rel.sent on, the cursor moving
// first (see Exec.emit).
func (s *keyedStage) emit() {
	x := s.x
	for r, dst := x.rel, s.out(); r.sent < len(*dst); {
		kr := (*dst)[r.sent]
		r.sent++
		x.emitted++
		x.q.telem.noteResult(kr.Result, x.flushing)
		x.q.tracer.Emit(int64(kr.EmitArrival), kr.Idx, int64(kr.Start), int64(kr.End), kr.Key, kr.Count, int64(kr.Latency()))
		if x.q.keyedSink != nil {
			x.q.keyedSink(kr)
		}
		if x.sink != nil {
			x.sink(kr.Result)
		}
	}
}

func (s *keyedStage) stats() window.OpStats { return s.op.Stats() }
