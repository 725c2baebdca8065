package cq

import (
	"errors"
	"fmt"

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
// One Step is: journal the batch → per item, insert it into the handler,
// advance the arrival clock and observe the tuples the insertion released →
// suppress emissions below the recovered floor → report / telemetry /
// tracer / sink → sync the handler's trace and counters, once → journal
// the emission cursor → snapshot when due. Crash recovery is the same
// per-item loop over the journal suffix with nothing journaled (see
// Resume). Every state change happens inside Step on the caller's
// goroutine, so a snapshot is a plain call at a batch boundary: the journal
// covers exactly the items the captured state has absorbed.
//
// An Exec is not safe for concurrent use; its driver serializes every call
// (cmd/aqserver does so with the runner mutex).
type Exec struct {
	q       *AggQuery
	raw     buffer.Handler // as configured; what Handler returns
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
	// still to be applied, and rel[relPos:] is what the item before pos
	// released and the window stage has not seen yet. Step sets pend and
	// Resume works both off, so a driver that isolates panics can say where
	// one hit and carry on behind it.
	stage  string
	pend   []stream.Item
	pos    int
	rel    []stream.Tuple
	relPos int

	// Durability (nil log without Durable).
	log      *durable.QueryLog
	decorate func(*durable.Snapshot)
	floor    int64 // primary emissions below it were delivered before the crash
	// The two flags sit together so that the struct stays in its 320-byte
	// size class (see CHANGES.md, PR 16).
	haveFloor bool
	flushing  bool // Finish reached: emissions are flush-forced
}

// Pipeline positions, named in stage-panic errors (InFlight reports them as
// trace stages).
const (
	stageSource   = "source"
	stageDisorder = "disorder"
	stageWindow   = "window"
)

// windowStage is the seam between the step core and the window operator:
// the plain operator, or the keyed operator of a grouped query. Both are
// evaluated in place, on the stepping goroutine, whatever the driver.
type windowStage interface {
	// observe feeds one released tuple at arrival position now.
	observe(t stream.Tuple, now stream.Time)
	// endStep is a batch boundary: nothing observed may stay parked.
	endStep()
	// finish records the PreFlush boundary, observes the tuples the
	// handler's final flush released and forces the remaining windows out.
	finish(flushed []stream.Tuple, now stream.Time)
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
	x := &Exec{q: q, sink: sink, rep: &AggReport{}, stage: stageSource}
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

// Resume applies what is pending, item by item: insert into the handler,
// advance the arrival clock, observe the tuples the insertion released. It
// is the body of every Step, and what a panic-isolating driver calls
// itself. After NewExec recovered prior state, the journal suffix is
// pending and Resume is the replay — nothing is journaled again, it is the
// journal. And after recovering a panic raised inside Step or Resume,
// Resume carries on behind it: the rest of the batch is already journaled,
// so abandoning it would make the journal lie. A panic in the disorder
// stage costs the item in flight; one in the window stage at most the
// released tuple in flight, and the rest of what the item released is
// observed first. (The window operator stores a tuple before anything in it
// can fail, and a window whose emission panicked is emitted by the next
// advance, so there the cost is nothing.) The emission cursor and snapshot
// check of an interrupted Step ride on the next one.
func (x *Exec) Resume() {
	x.observeReleased()
	for x.pos < len(x.pend) {
		it := x.pend[x.pos]
		x.pos++ // a panic below leaves this item behind, not the batch
		x.stage = stageDisorder
		x.rel = x.handler.Insert(it, x.rel[:0])
		x.relPos = 0
		x.released += len(x.rel)
		x.stage = stageWindow
		if it.Heartbeat {
			if it.Watermark > x.now {
				x.now = it.Watermark
			}
		} else if it.Tuple.Arrival > x.now {
			// Arrival is client-supplied on the wire and need not be
			// monotone; the clock is.
			x.now = it.Tuple.Arrival
		}
		x.observeReleased()
	}
	x.win.endStep()
	x.sync()
	x.stage, x.pend = stageSource, nil
}

// observeReleased hands the window stage what the last inserted item
// released and it has not seen yet.
func (x *Exec) observeReleased() {
	for x.relPos < len(x.rel) {
		t := x.rel[x.relPos]
		x.relPos++ // a panic below leaves this tuple behind, not the rest
		x.win.observe(t, x.now)
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
// trace stage (buffer or window) and the item being applied (the zero Item
// if the panic came from outside the per-item loop).
func (x *Exec) InFlight() (stage tracez.Stage, it stream.Item) {
	stage = tracez.StageWindow
	if x.stage == stageDisorder {
		stage = tracez.StageBuffer
	}
	if x.pos > 0 && x.pos <= len(x.pend) {
		it = x.pend[x.pos-1]
	}
	return stage, it
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
	x.rel = x.handler.Flush(x.rel[:0])
	x.relPos = len(x.rel) // the window stage's finish takes them whole
	x.released += len(x.rel)
	x.sync()
	x.stage = stageWindow
	x.win.finish(x.rel, x.now)
	x.q.tracer.Flush(int64(x.now))
	x.stage = stageSource
	if x.log != nil {
		if err := x.log.Commit(); err != nil {
			return fmt.Errorf("cq: journal: %w", err)
		}
	}
	return nil
}

// emit delivers the plain operator's results: floor suppression first, so
// duplicates of pre-crash deliveries reach neither report, trace nor sink.
func (x *Exec) emit(results []window.Result) {
	for _, res := range results {
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

func (s plainStage) observe(t stream.Tuple, now stream.Time) {
	x := s.x
	x.scratch = x.op.Observe(t, now, x.scratch[:0])
	x.emit(x.scratch)
}

// endStep delivers what an Observe that ended in a panic had emitted before
// it, so that the emission cursor and snapshot of the step cover nothing the
// sink has not seen.
func (s plainStage) endStep() {
	s.x.scratch = s.x.op.Drain(s.x.scratch[:0])
	s.x.emit(s.x.scratch)
}

func (s plainStage) finish(flushed []stream.Tuple, now stream.Time) {
	x := s.x
	x.rep.PreFlush, x.flushing = x.emitted, true
	for _, t := range flushed {
		s.observe(t, now)
	}
	x.scratch = x.op.Flush(now, x.scratch[:0])
	x.emit(x.scratch)
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

// out is where the operator appends its next results, and from which index.
func (s *keyedStage) out() (dst *[]window.KeyedResult, base int) {
	if s.x.q.discardRep {
		s.scratch = s.scratch[:0]
		return &s.scratch, 0
	}
	return &s.x.rep.Keyed, len(s.x.rep.Keyed)
}

func (s *keyedStage) observe(t stream.Tuple, now stream.Time) {
	dst, base := s.out()
	*dst = s.op.Observe(t, now, *dst)
	s.emit((*dst)[base:])
}

func (s *keyedStage) endStep() {
	dst, base := s.out()
	*dst = s.op.Drain(*dst)
	s.emit((*dst)[base:])
}

func (s *keyedStage) finish(flushed []stream.Tuple, now stream.Time) {
	x := s.x
	x.rep.PreFlush, x.flushing = x.emitted, true
	for _, t := range flushed {
		s.observe(t, now)
	}
	dst, base := s.out()
	*dst = s.op.Flush(now, *dst)
	s.emit((*dst)[base:])
}

func (s *keyedStage) emit(results []window.KeyedResult) {
	x := s.x
	x.emitted += len(results)
	for _, kr := range results {
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
