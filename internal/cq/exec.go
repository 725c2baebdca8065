package cq

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/buffer"
	"repro/internal/durable"
	"repro/internal/join"
	"repro/internal/obs/tracez"
	"repro/internal/stream"
	"repro/internal/window"
)

// Exec is the one executor: a synchronous, single-writer step core that
// applies batches of accepted items to a disorder handler and hands what it
// releases to the window stages it feeds, one per query. Run and Group — the
// one ring loop, behind RunConcurrent, RunShared and cmd/aqserver — are its
// drivers: they decide where items come from, and hand them to Step.
//
// One Step is: count the batch → journal it → the disorder pass: insert the
// items into the handler, advancing the arrival clock, and keep what they
// released with the clock each tuple was released at → the window pass: hand
// every window stage that run whole → suppress emissions below the recovered
// floor → report / telemetry / tracer / sink → hand an adaptive handler what
// its query's operator reported, and run its adaptation if due (feedback) →
// sync every stage's buffer trace and telemetry, once → journal the emission
// cursor → snapshot when due. A run, not a tuple, is the unit of work
// between handler and operator, which is where the time goes: see Resume.
// Crash recovery is the same two passes over the journal suffix with nothing
// journaled. Every state change happens
// inside Step on the caller's goroutine, so a snapshot is a plain call at a
// batch boundary: the journal covers exactly the items the captured state
// has absorbed.
//
// NewExec builds an Exec with one window stage. What a handler releases
// depends on nothing but the stream when its kind is deterministic and does
// not depend on the query (ShareKey), and queries over one stream behind such
// a handler then sort every tuple into identical runs: Join adds a query's
// window stage to the Exec, so that one disorder pass feeds them all — the
// K-slack in front of several windows, as in the paper — and Leave ends one
// while the others run on. The handler, arrival clock, intake disorder
// measurement and journal are the Exec's; the sink, report, tracer,
// telemetry, what the last sync saw of the handler, emitted count, release
// cursor and PreFlush boundary are the stage's, so every query's report, trace
// and gauges read exactly as they would if it ran alone over the same items.
//
// An Exec is not safe for concurrent use; its driver serializes every call
// (a Group with its lock).
type Exec struct {
	handler buffer.Handler         // as configured (buffer.Zero when none); the disorder pass feeds it
	fb      buffer.FeedbackHandler // handler, when it adapts to what its query's operator reports
	stages  []*Stage

	now      stream.Time        // arrival clock: max arrival/watermark applied so far
	at       stream.Time        // event-time clock: max event time inserted so far, the buffer events' timestamp
	dis      stream.DisorderAcc // intake-side disorder measurement (see noteInput)
	released int                // tuples the handler released since the last sync

	// The work in flight: pend[pos:] is journaled (or is the journal) and
	// still to be inserted, and rel is what the items before pos released;
	// each stage keeps how far it has got with rel. Step sets pend and Resume
	// works both off, so a driver that isolates panics can say where one hit
	// and carry on behind it: stage names the pass, and in the window pass cur
	// the stage being handed the run. rel is a pointer to keep the struct in
	// its size class (TestExecSizeClass).
	stage string
	cur   int
	pend  []stream.Item
	pos   int
	rel   *released

	// Durability (nil log without Durable; a durable query never shares).
	log       *durable.QueryLog
	floor     int64 // primary emissions below it were delivered before the crash
	haveFloor bool
}

// Stage is one query's window stage in an Exec: its window operator and what
// the query delivers to — sink, report, tracer, telemetry — with its own
// cursor in the run the disorder pass released.
type Stage struct {
	x       *Exec // nil once the stage has left (Leave)
	q       *AggQuery
	sink    func(window.Result)
	rep     *AggReport
	op      *window.Op // plain operator; nil for grouped queries
	win     windowStage
	scratch []window.Result
	emitted int // results delivered, after floor suppression
	// seen is the handler as the stage's last sync saw it: its cumulative
	// stats and its slack, whose deltas the next sync records. synced is false
	// until the first, which always records the slack.
	seen   buffer.Stats
	seenK  stream.Time
	synced bool

	// The release cursor: the run's tuples before pos have been handed to
	// the operator, and the operator's results before sent delivered.
	pos, sent int
	flushing  bool // Finish or Leave reached: emissions are flush-forced
}

// released is the run between the two passes of a step: the tuples one chunk
// of pending items released, in release order.
type released struct {
	ts   []stream.Tuple
	nows []stream.Time // nows[i]: the arrival clock when ts[i] was released
	ends []int         // ends[j]: len(ts) once the chunk's item j was inserted
	base int           // the chunk is pend[base : base+len(ends)]
	fin  []window.Final
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

// windowStage is the seam between the step core and a query's window
// operator: the plain operator, the keyed operator of a grouped query, or
// the join operator of a join query. Each is evaluated in place, on the
// stepping goroutine, whatever the driver, and each takes a released run
// whole — there is no per-tuple entry.
type windowStage interface {
	// observeRun delivers the results a panic cut off from the sink (from
	// the stage's sent), hands the operator r.ts[pos:] with their nows — pos
	// moves past a tuple before the operator touches it — and delivers what
	// that emitted. After it returns nothing is parked: not in r, not in the
	// operator, not short of the sink.
	observeRun(r *released)
	// flush forces the remaining windows out and delivers them.
	flush(now stream.Time)
	stats() window.OpStats
	// setFeedback and finals are the operator's SetFeedback and Finals.
	setFeedback(horizon stream.Time)
	finals(out []window.Final) []window.Final
}

// NewExec builds the step core for a query that has no source of its own:
// the caller is the driver and feeds Step. Results reach sink (may be nil;
// a grouped query's sink sees the Result embedded in each KeyedResult) from
// inside Step, Resume and Finish, on the caller's goroutine. A Durable query
// whose log holds prior state comes back with the snapshot restored and the
// journal suffix pending. Replaying it — duplicates suppressed, the rest delivered to sink like live
// results — is Resume: a driver with a panic policy calls it under that
// policy before the first Step; otherwise the first Step or Finish does.
func NewExec(q *AggQuery, sink func(window.Result)) (*Exec, error) {
	if err := q.validateOwned(); err != nil {
		return nil, err
	}
	return newExec(q, sink)
}

// validateOwned refuses a query with a source — NewExec's and Join's caller
// is the driver — and checks its shape.
func (q *AggQuery) validateOwned() error {
	if q.source != nil {
		return errors.New("cq: an Exec's queries are built without a source (Run and RunConcurrent own theirs)")
	}
	return q.validateShape()
}

// newExec builds the core for a validated query.
func newExec(q *AggQuery, sink func(window.Result)) (*Exec, error) {
	x := &Exec{stage: stageSource, rel: &released{}, handler: q.handler}
	if x.handler == nil {
		x.handler = buffer.Zero()
	}
	if fb, ok := x.handler.(buffer.FeedbackHandler); ok && fb.FeedbackHorizon() > 0 {
		// The handler reads its stage's reports by its quality model: a
		// join's pair counts by the recall model, window finals by the other.
		if (fb.Recall() > 0) != (q.join != nil) {
			return nil, fmt.Errorf("cq: %s cannot take this query's feedback: a join query needs core.NewAQJoin, a window query core.NewAQKSlack", fb)
		}
		x.fb = fb
	}
	q.traceTo(x.handler)
	x.stages = []*Stage{x.newStage(q, sink)}
	if q.durable != nil {
		if err := x.restore(); err != nil {
			return nil, err
		}
	}
	q.telem.noteHandler(0, 0, x.handler.K(), x.handler.Len()) // the handler as restored, not as built
	return x, nil
}

// newStage builds q's window stage in x.
func (x *Exec) newStage(q *AggQuery, sink func(window.Result)) *Stage {
	s := &Stage{x: x, q: q, sink: sink, rep: &AggReport{}}
	switch {
	case q.join != nil:
		s.win = &joinStage{s: s, op: q.join}
	case q.grouped:
		s.win = &keyedStage{s: s, op: window.NewKeyedOp(q.spec, q.agg, q.policy, q.refineFor)}
	default:
		s.op = window.NewOp(q.spec, q.agg, q.policy, q.refineFor)
		s.win = plainStage{s}
	}
	if x.fb != nil {
		s.win.setFeedback(x.fb.FeedbackHorizon())
	}
	return s
}

// shareable decides whether a query's disorder pass may feed other queries'
// window stages as well (ShareKey, Exec.Join). It may when what its handler
// releases depends on the stream alone: the handler is of a deterministic
// kind that does not depend on the query — fixed K-slack (the default, and
// "none" at K = 0), MAX-slack, the percentile watermark or punctuation — and
// nothing of the query's own runs beside it: no Durable journal. The adaptive
// handlers of internal/core model their query's window and aggregate, and a
// wrapped handler may do anything: neither shares. shareable returns a fresh
// handler of the query's kind — what a leaving query's private copy of the
// shared one is restored into — or nil when the query runs alone.
func shareable(q *AggQuery) buffer.Handler {
	if q.durable != nil {
		return nil
	}
	switch q.handler.(type) {
	case nil, *buffer.KSlack:
		return buffer.Zero()
	case *buffer.MaxSlack:
		return buffer.NewMaxSlack()
	case *buffer.Percentile:
		return buffer.NewPercentile(1, 1) // a flush needs the restored state only
	case *buffer.Punctuated:
		return buffer.NewPunctuated()
	}
	return nil
}

// ShareKey is what the drivers that serve many queries from one ring group
// them by — RunShared, and cmd/aqserver's group registry: queries with equal,
// non-empty keys release identical runs from identical input, so one Exec's
// disorder pass can feed all their window stages (Join). The key is the
// handler's kind, configuration and state — a fresh handler's state is its
// configuration — and empty for a query that runs alone (see shareable).
func ShareKey(q *AggQuery) string {
	if shareable(q) == nil {
		return ""
	}
	h := q.handler
	if h == nil {
		h = buffer.Zero()
	}
	st, err := durable.SaveHandler(h)
	if err != nil {
		return ""
	}
	var state any
	switch {
	case st.Slack != nil:
		state = *st.Slack
	case st.Percentile != nil:
		state = *st.Percentile
	case st.Punctuated != nil:
		state = *st.Punctuated
	}
	return fmt.Sprintf("%s %#v", h, state)
}

// Join adds q's window stage to x, fed from x's disorder pass, with sink as
// its result sink (as NewExec's), and returns it. q must be built without a
// source and have x's ShareKey — which, the key holding the handler's state,
// asks in practice that neither x nor q's handler has seen an item yet. q's
// own handler is left unused.
func (x *Exec) Join(q *AggQuery, sink func(window.Result)) (*Stage, error) {
	if err := q.validateOwned(); err != nil {
		return nil, err
	}
	if key := ShareKey(q); key == "" || key != x.shareKey() || x.pend != nil || x.stages[0].flushing {
		return nil, errors.New("cq: the query cannot join this Exec's disorder pass (see ShareKey)")
	}
	s := x.newStage(q, sink)
	x.stages = append(x.stages, s)
	q.telem.noteHandler(0, 0, x.handler.K(), x.handler.Len())
	return s, nil
}

// shareKey is the ShareKey of a query like x's first whose handler is x's,
// where it stands now.
func (x *Exec) shareKey() string {
	lead := *x.stages[0].q
	lead.handler = x.handler
	return ShareKey(&lead)
}

// Stages returns x's window stages, in the order they joined; the slice must
// not be modified.
func (x *Exec) Stages() []*Stage { return x.stages }

// noteInput is every driver's intake for a batch it is about to step: each
// data tuple's input record (KeepInput) and the inline disorder measurement.
func (x *Exec) noteInput(items []stream.Item) {
	for _, s := range x.stages {
		if s.q.keepInput {
			for i := range items {
				if !items[i].Heartbeat {
					s.rep.Input = append(s.rep.Input, items[i].Tuple)
				}
			}
		}
	}
	x.dis.Observe(items)
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
	x.noteBatch(batch)
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

// noteBatch counts a batch about to be stepped in every stage's telemetry:
// its size, its data tuples and its heartbeats.
func (x *Exec) noteBatch(batch []stream.Item) {
	heartbeats := 0
	for i := range batch {
		if batch[i].Heartbeat {
			heartbeats++
		}
	}
	for _, s := range x.stages {
		s.q.telem.noteBatch(len(batch), heartbeats)
	}
}

// noteShed charges n data tuples a ring lap cost to every stage: its
// report's and its telemetry's shed count, and a shed event in its tracer at
// the arrival clock.
func (x *Exec) noteShed(n int64) {
	for _, s := range x.stages {
		s.rep.Shed += n
		s.q.telem.noteShed(n)
		s.q.tracer.Shed(int64(x.now), n)
	}
}

// Resume applies what is pending, in two passes a chunk: the disorder pass
// inserts the chunk's items into the handler and stamps every released tuple
// with the arrival clock of the item that released it; the window pass hands
// every window stage that run. A feedback handler's chunk ends where its
// next adaptation falls due, and the adaptation runs behind the window pass
// (feedback). It is the body of every Step, and what a
// panic-isolating driver calls itself. After NewExec recovered prior state,
// the journal suffix is pending and Resume is the replay — nothing is
// journaled again, it is the journal. And after recovering a panic raised
// inside Step or Resume, Resume carries on behind it: the rest of the batch
// is already journaled, so abandoning it would make the journal lie. A panic
// in the disorder pass costs the item in flight — for every stage, which all
// see what the handler releases; one in the window pass at most the released
// tuple or the result in flight, of the stage it hit only, and everything
// released or emitted behind it is observed and delivered first. (The window
// operator stores a tuple before anything in it can fail, and a window whose
// emission panicked is emitted by the next advance, so there the cost is
// nothing.) The emission cursor and snapshot check of an interrupted Step
// ride on the next one.
//
// Why runs: taking a batch apart into one handler call and one operator call
// per tuple — each with its copies of a 64-byte Item, three divisions to
// place the tuple among the windows and a chain of frames down to the sink —
// cost more than the work itself, when 99 released tuples in 100 are late
// for nothing and close nothing (window.Op.ObserveRun). And it is what lets
// one disorder pass feed many stages: the run is sorted once and read by each.
func (x *Exec) Resume() {
	if x.stage != stageSource {
		// Behind a panic: first what it left in the release buffer, parked in
		// an operator or short of a sink. (A pass that returns leaves
		// nothing, so every other call starts with the disorder pass.)
		x.windowPass()
		x.feedback()
	}
	for x.pos < len(x.pend) {
		x.stage = stageDisorder
		x.insertChunk(x.pend[x.pos:min(x.pos+maxChunk, len(x.pend))])
		x.windowPass()
		x.feedback()
	}
	x.sync()
	x.stage, x.pend = stageSource, nil
}

// windowPass hands the run in the release buffer to the stages in turn, from
// the one a panic interrupted: a stage that has had the whole run does nothing
// with it again.
func (x *Exec) windowPass() {
	x.stage = stageWindow
	for ; x.cur < len(x.stages); x.cur++ {
		x.stages[x.cur].win.observeRun(x.rel)
	}
	x.cur = 0
}

// feedback hands a feedback handler what the window pass had its query's
// operator report, and so runs the adaptation the run left due — before the
// step's sync, emission cursor and snapshot, so that every adaptation sees
// the same reports whatever the size of the steps. It is part of the
// disorder pass: a panic in it is the handler's. (A feedback handler never
// shares its disorder pass, see shareable: its stage is the first and only.)
func (x *Exec) feedback() {
	if x.fb == nil {
		return
	}
	x.stage = stageDisorder
	r := x.rel
	r.fin = x.stages[0].win.finals(r.fin[:0])
	x.fb.Feedback(r.fin)
}

// insertChunk is the disorder pass over one chunk of the pending items. A
// handler that is exactly a *buffer.KSlack — its concrete type; a type that
// embeds one and overrides Insert inherits InsertBatch and must not be
// short-circuited — takes the chunk in one call, and a feedback handler the
// part of it up to its next adaptation; either is stamped behind it in one
// pass. Every other handler takes it item by item, x.pos moving first so that
// a panic leaves the item behind, not the batch, and every item stamped as it
// goes. The event-time clock takes the largest event time stamped.
func (x *Exec) insertChunk(chunk []stream.Item) {
	r := x.rel
	r.ts, r.nows, r.ends, r.base = r.ts[:0], r.nows[:0], r.ends[:0], x.pos
	for _, s := range x.stages {
		s.pos = 0
	}
	if ks, ok := x.handler.(*buffer.KSlack); ok || x.fb != nil {
		x.pos += len(chunk)
		if ok {
			r.ts, r.ends = ks.InsertBatch(chunk, r.ts, r.ends)
		} else {
			r.ts, r.ends, _ = x.fb.InsertRun(chunk, r.ts, r.ends)
			chunk = chunk[:len(r.ends)]
			x.pos = r.base + len(chunk)
		}
		at := x.at
		for i := range chunk {
			at = max(at, x.stamp(&chunk[i], r.ends[i]))
		}
		x.at = at
		return
	}
	for i := range chunk {
		x.pos++
		r.ts = x.handler.Insert(chunk[i], r.ts)
		r.ends = append(r.ends, len(r.ts))
		x.at = max(x.at, x.stamp(&chunk[i], len(r.ts)))
	}
}

// stamp advances the arrival clock over one inserted item, counts and stamps
// the tuples its insertion released, rel.ts[len(rel.nows):end], and returns
// the item's event time (a tuple's TS, a heartbeat's watermark).
func (x *Exec) stamp(it *stream.Item, end int) (at stream.Time) {
	// Arrival is client-supplied on the wire and need not be monotone; the
	// clock is.
	arrival, at := it.Tuple.Arrival, it.Tuple.TS
	if it.Heartbeat {
		arrival, at = it.Watermark, it.Watermark
	}
	x.now = max(x.now, arrival)
	r := x.rel
	x.released += end - len(r.nows)
	for len(r.nows) < end {
		r.nows = append(r.nows, x.now)
	}
	return at
}

// sync publishes the handler's activity once per step, not per item, and
// without a hook in the handler: it reads the handler's cumulative stats,
// slack and depth once and brings every stage up to them (Stage.sync). A step
// a panic cut short skips it and loses nothing: its share rides on the sync
// of the Resume that carries on behind it.
func (x *Exec) sync() {
	h := x.handler
	st, k, depth := h.Stats(), h.K(), h.Len()
	for _, s := range x.stages {
		s.sync(st, k, depth, x.at, x.released)
	}
	x.released = 0
}

// sync brings the stage's tracer and telemetry up to the handler that feeds
// it, which now stands at stats st, slack k and depth: the deltas since the
// stage's last sync become buffer events — tuples inserted, released and
// released out of order, one event each with N = the count, and the slack if
// it changed (the first sync always records it) — at the event-time clock at,
// so traces replay deterministically; the telemetry takes released, the
// tuples released since, the new stragglers among them, and the slack and
// depth.
func (s *Stage) sync(st buffer.Stats, k stream.Time, depth int, at stream.Time, released int) {
	stragglers := st.Stragglers - s.seen.Stragglers
	s.q.tracer.BufferSync(int64(at), st.Inserted-s.seen.Inserted, st.Released-s.seen.Released,
		stragglers, int64(k), !s.synced || k != s.seenK)
	s.q.telem.noteHandler(released, stragglers, k, depth)
	s.seen, s.seenK, s.synced = st, k, true
}

// InFlight reports where a panic raised inside Step or Resume hit: the
// trace stage (buffer or window) and the item being applied — in the buffer
// stage the item being inserted, in the window stage the item whose insertion
// released the last tuple the stage's operator was handed (for a panic out of
// the sink that is the last tuple of the run: results are delivered behind
// it). It is the zero Item if the panic came from outside the two passes.
func (x *Exec) InFlight() (stage tracez.Stage, it stream.Item) {
	if x.stage == stageDisorder {
		if x.pos > 0 && x.pos <= len(x.pend) {
			it = x.pend[x.pos-1]
		}
		return tracez.StageBuffer, it
	}
	if s := x.InFlightStage(); s != nil && s.pos > 0 {
		r := x.rel
		if i := r.base + sort.SearchInts(r.ends, s.pos); i < r.base+len(r.ends) && i < len(x.pend) {
			it = x.pend[i]
		}
	}
	return tracez.StageWindow, it
}

// InFlightStage reports which query a panic raised inside Step, Resume or
// Finish costs: the window stage it hit, or nil when it hit the disorder
// pass — which every stage shares — or came from outside the two passes.
func (x *Exec) InFlightStage() *Stage {
	if x.stage != stageWindow || x.cur >= len(x.stages) {
		return nil
	}
	return x.stages[x.cur]
}

// Finish ends the stream: every stage's results so far are marked
// progress-emitted (PreFlush), the handler is flushed into every operator
// and the operators through the same emission path, and the journal is
// committed. Flush-forced emissions are not journaled as emission progress:
// they exist only because the stream ended, and a continuation after
// recovery re-emits those windows in full.
func (x *Exec) Finish() error {
	if x.pend != nil {
		x.Resume()
	}
	x.stage = stageDisorder
	r := x.drain(x.handler)
	x.released += len(r.ts)
	x.sync()
	x.stage = stageWindow
	for ; x.cur < len(x.stages); x.cur++ {
		x.stages[x.cur].finish(r, x.now)
	}
	x.feedback()
	x.stage, x.cur = stageSource, 0
	return x.commit()
}

// commit group-commits the journal, if there is one: what it holds now
// survives a process crash.
func (x *Exec) commit() error {
	if x.log == nil {
		return nil
	}
	if err := x.log.Commit(); err != nil {
		return fmt.Errorf("cq: journal: %w", err)
	}
	return nil
}

// Leave ends one query of x as Finish would end it alone — its PreFlush
// boundary recorded, the handler flushed into its operator, its remaining
// windows forced out, its report, trace and telemetry told so — and removes
// its stage. The others are untouched: the flush goes through a private copy
// of the handler (durable.SaveHandler, RestoreHandler), and the shared one
// keeps every tuple it holds for them. Leaving the only stage is Finish.
func (x *Exec) Leave(s *Stage) error {
	i := slices.Index(x.stages, s)
	if i < 0 {
		return errors.New("cq: Leave: not a stage of this Exec")
	}
	if len(x.stages) == 1 {
		return x.Finish()
	}
	if x.pend != nil {
		x.Resume()
	}
	h := shareable(s.q) // every query of a shared pass is shareable
	st, err := durable.SaveHandler(x.handler)
	if err == nil {
		err = durable.RestoreHandler(h, st)
	}
	if err != nil {
		return fmt.Errorf("cq: Leave: %w", err)
	}
	x.stages = slices.Delete(x.stages, i, i+1)
	r := x.drain(h)
	s.sync(h.Stats(), h.K(), h.Len(), x.at, len(r.ts))
	s.finish(r, x.now)
	s.rep.Disorder, s.rep.Handler = x.dis.Finish(), h.Stats()
	s.x = nil
	return nil
}

// drain fills the release buffer with what flushing h releases, stamped with
// the arrival clock.
func (x *Exec) drain(h buffer.Handler) *released {
	r := x.rel
	r.ts, r.nows, r.ends = h.Flush(r.ts[:0]), r.nows[:0], r.ends[:0]
	for range r.ts {
		r.nows = append(r.nows, x.now)
	}
	return r
}

// Report brings the first stage's report up to date and returns it: for an
// Exec of one query, its report (see Stage.Report).
func (x *Exec) Report() *AggReport { return x.stages[0].Report() }

// Report brings the handler, operator and disorder statistics up to date and
// returns the live report (not a copy). The handler and disorder statistics
// are the disorder pass's — what the query's own would read — or, once the
// stage has left, what its private copy's were when it did.
func (s *Stage) Report() *AggReport {
	if x := s.x; x != nil {
		s.rep.Disorder = x.dis.Finish()
		s.rep.Handler = x.handler.Stats()
	}
	s.rep.Handler.Shed = s.rep.Shed
	s.rep.Op = s.win.stats()
	return s.rep
}

// Now returns the arrival clock.
func (x *Exec) Now() stream.Time { return x.now }

// Handler returns the disorder handler the Exec was built with (buffer.Zero
// when none was set), for hosts that read its live state between steps.
func (x *Exec) Handler() buffer.Handler { return x.handler }

// panicErr converts a panic recovered around Step or Finish into the
// pipeline error naming the stage it hit.
func (x *Exec) panicErr(p any) error {
	return fmt.Errorf("cq: %s stage panicked: %v", x.stage, p)
}

// restore begins a durable execution: load the snapshot (if any) into
// handler and operator, resume the disorder accumulator and arrival clock,
// arm the emission floor and leave the journal suffix pending. The recovery
// is consumed from the log, so a second execution on the same open log
// starts clean. A durable query runs alone: its stage is the Exec's only one.
func (x *Exec) restore() error {
	s := x.stages[0]
	x.log = s.q.durable
	rec := x.log.TakeRecovery()
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
			if err := s.op.Restore(*snap.Op); err != nil {
				return err
			}
		}
		x.dis = stream.DisorderAcc(snap.Disorder)
		x.now = snap.Now
	}
	x.floor, x.haveFloor = rec.EmitProgress, rec.HaveEmit
	s.rep.Recovery = &RecoveryInfo{
		FromSnapshot:     rec.Snapshot != nil,
		ReplayedItems:    len(rec.Suffix),
		DurableItems:     rec.Items,
		EmitProgress:     rec.EmitProgress,
		HaveEmit:         rec.HaveEmit,
		TruncatedBytes:   rec.TruncatedBytes,
		TruncatedRecords: rec.TruncatedRecords,
	}
	// The journal suffix is left pending for the driver's Resume; its items
	// still count as input.
	x.noteInput(rec.Suffix)
	x.pend, x.pos = rec.Suffix, 0
	s.q.tracer.Recovery(int64(x.now), len(rec.Suffix), x.floor, rec.TruncatedBytes)
	return nil
}

// suppress reports whether res duplicates a primary emission the previous
// process delivered durably. Refinements are never suppressed: they are
// corrections, idempotent by definition.
func (s *Stage) suppress(res window.Result) bool {
	x := s.x
	if !x.haveFloor || res.Refinement || res.Idx >= x.floor {
		return false
	}
	s.rep.Recovery.SuppressedResults++
	return true
}

// noteEmitProgress journals the operator's emission cursor once per step;
// the log dedupes monotone repeats.
func (x *Exec) noteEmitProgress() error {
	emit, have := x.stages[0].op.EmitProgress()
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
	s := x.stages[0]
	ops := s.op.State()
	emit, have := s.op.EmitProgress()
	snap := &durable.Snapshot{
		Records:      records,
		Items:        items,
		Now:          x.now,
		Disorder:     durable.DisorderCut(x.dis),
		Handler:      hs,
		Op:           &ops,
		EmitProgress: emit,
		HaveEmit:     have,
	}
	if err := x.log.WriteSnapshot(snap); err != nil {
		return fmt.Errorf("cq: snapshot: %w", err)
	}
	s.q.tracer.Snapshot(int64(x.now), records)
	return nil
}

// finish ends the stage's stream: its results so far are progress-emitted
// (PreFlush), the run the handler's final flush released is observed and the
// remaining windows are forced out.
func (s *Stage) finish(r *released, now stream.Time) {
	s.rep.PreFlush, s.flushing = s.emitted, true
	s.pos = 0
	s.win.observeRun(r)
	s.win.flush(now)
	s.q.tracer.Flush(int64(now))
}

// emit delivers the plain operator's results, s.scratch from s.sent on:
// floor suppression first, so duplicates of pre-crash deliveries reach
// neither report, trace nor sink. The cursor moves before a result is
// delivered, so a panic out of telemetry, tracer or sink costs that result
// and the next pass delivers the ones behind it.
func (s *Stage) emit() {
	for s.sent < len(s.scratch) {
		res := s.scratch[s.sent]
		s.sent++
		if s.suppress(res) {
			continue
		}
		s.emitted++
		if !s.q.discardRep {
			s.rep.Results = append(s.rep.Results, res)
		}
		s.q.telem.noteResult(res, s.flushing)
		s.q.tracer.Emit(int64(res.EmitArrival), res.Idx, int64(res.Start), int64(res.End), 0, res.Count, int64(res.Latency()))
		if s.sink != nil {
			s.sink(res)
		}
	}
}

// plainStage is the non-grouped window stage: one window.Op whose results
// go through Stage.emit.
type plainStage struct{ s *Stage }

func (p plainStage) observeRun(r *released) {
	s := p.s
	s.emit()
	s.scratch, s.sent = s.op.ObserveRun(r.ts, r.nows, &s.pos, s.scratch[:0]), 0
	s.emit()
}

func (p plainStage) flush(now stream.Time) {
	s := p.s
	s.scratch, s.sent = s.op.Flush(now, s.scratch[:0]), 0
	s.emit()
}

func (p plainStage) stats() window.OpStats { return p.s.op.Stats() }

func (p plainStage) setFeedback(horizon stream.Time) { p.s.op.SetFeedback(horizon) }

func (p plainStage) finals(out []window.Final) []window.Final { return p.s.op.Finals(out) }

// keyedStage is the grouped window stage: one window.KeyedOp, whose results
// — in its canonical order, by window and then by key — are delivered like
// the plain stage's: report, telemetry, tracer, and the sink with the
// embedded Result. (Durable refuses grouped queries, so there is no
// emission floor to apply.) The operator appends straight to the
// report; under DiscardReport, to a scratch slice instead.
type keyedStage struct {
	s       *Stage
	op      *window.KeyedOp
	scratch []window.KeyedResult
}

// out is where the operator appends its next results; the stage's sent
// indexes it. The scratch slice is emptied whenever everything in it has
// been delivered.
func (k *keyedStage) out() *[]window.KeyedResult {
	s := k.s
	if !s.q.discardRep {
		return &s.rep.Keyed
	}
	if s.sent == len(k.scratch) {
		k.scratch, s.sent = k.scratch[:0], 0
	}
	return &k.scratch
}

func (k *keyedStage) observeRun(r *released) {
	k.emit()
	dst := k.out()
	*dst = k.op.ObserveRun(r.ts, r.nows, &k.s.pos, *dst)
	k.emit()
}

func (k *keyedStage) flush(now stream.Time) {
	dst := k.out()
	*dst = k.op.Flush(now, *dst)
	k.emit()
}

// emit delivers the operator's results from the stage's sent on, the cursor
// moving first (see Stage.emit).
func (k *keyedStage) emit() {
	s := k.s
	for dst := k.out(); s.sent < len(*dst); {
		kr := (*dst)[s.sent]
		s.sent++
		s.emitted++
		s.q.telem.noteResult(kr.Result, s.flushing)
		s.q.tracer.Emit(int64(kr.EmitArrival), kr.Idx, int64(kr.Start), int64(kr.End), kr.Key, kr.Count, int64(kr.Latency()))
		if s.sink != nil {
			s.sink(kr.Result)
		}
	}
}

func (k *keyedStage) stats() window.OpStats { return k.op.Stats() }

func (k *keyedStage) setFeedback(horizon stream.Time) { k.op.SetFeedback(horizon) }

func (k *keyedStage) finals(out []window.Final) []window.Final { return k.op.Finals(out) }

// joinStage is a join query's window stage: one join.Join, handed each
// released tuple on its side (its Src) at the clock it was released at. Its
// pairs stay here for JoinQuery.Run; a join has no windows to force out. To a
// feedback handler — the recall model of core.NewAQJoin — it reports one
// Final per run: the pairs emitted (Emitted) and emitted + missed (Full) so
// far, as they stood before the run's last item released, which is when an
// adaptation that item made due reads them.
type joinStage struct {
	s     *Stage
	op    *join.Join
	pairs []join.Result
	seen  join.Stats // op's counts before the last run's last item released
}

func (j *joinStage) observeRun(r *released) {
	last := 0 // where the run's last item's releases start
	if n := len(r.ends); n > 1 {
		last = r.ends[n-2]
	}
	for s := j.s; ; {
		if s.pos == last {
			j.seen = j.op.Stats()
		}
		if s.pos == len(r.ts) {
			return
		}
		t, now := r.ts[s.pos], r.nows[s.pos]
		s.pos++
		j.pairs = j.op.Insert(join.Tagged{Tuple: t, Side: join.Side(t.Src)}, now, j.pairs)
	}
}

func (*joinStage) flush(stream.Time) {}

func (*joinStage) stats() window.OpStats { return window.OpStats{} }

func (*joinStage) setFeedback(stream.Time) {}

func (j *joinStage) finals(out []window.Final) []window.Final {
	return append(out, window.Final{Emitted: float64(j.seen.Emitted), Full: float64(j.seen.Emitted + j.seen.Missed)})
}
