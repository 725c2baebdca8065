package window

import (
	"fmt"
	"math"

	"repro/internal/stream"
)

// LatePolicy says what the operator does with a tuple that belongs to an
// already-emitted window.
type LatePolicy int

const (
	// DropLate discards late contributions: emitted results are final and
	// the dropped tuples show up as result error. This is the policy whose
	// error the quality-driven controller bounds.
	DropLate LatePolicy = iota
	// RefineLate re-emits an updated result (marked Refinement) for a late
	// contribution, as long as the window's state is still retained.
	RefineLate
)

// String renders the policy.
func (p LatePolicy) String() string {
	if p == RefineLate {
		return "refine"
	}
	return "drop"
}

// Result is one emitted window result.
type Result struct {
	Idx         int64       // window index
	Start, End  stream.Time // event-time interval [Start, End)
	Value       float64     // aggregate value
	Count       int64       // tuples contributing
	EmitArrival stream.Time // arrival-time position at emission
	Refinement  bool        // re-emission after late tuples (RefineLate only)
}

// Latency returns the result latency in stream-time units: how far past
// the window's event-time end the result was emitted. It includes both
// transport delay and disorder-handling slack.
func (r Result) Latency() stream.Time { return r.EmitArrival - r.End }

// String renders the result.
func (r Result) String() string {
	return fmt.Sprintf("win#%d[%d,%d) %s=%g n=%d lat=%d",
		r.Idx, r.Start, r.End, map[bool]string{true: "refined", false: "value"}[r.Refinement],
		r.Value, r.Count, r.Latency())
}

// OpStats are cumulative operator counters.
type OpStats struct {
	TuplesIn     int64 // tuples observed
	LateTuples   int64 // tuples late for at least one window
	LateDrops    int64 // (tuple, window) contributions lost to DropLate
	LateRefined  int64 // (tuple, window) contributions recovered by RefineLate
	Emitted      int64 // primary results emitted
	Refinements  int64 // refinement results emitted
	EmptyEmitted int64 // primary results with zero contributing tuples
	EmitFailed   int64 // primary results given up as NaN after maxEmitTries panics
}

// Op evaluates one windowed aggregate over a (mostly) event-time-ordered
// tuple stream, as produced by a disorder handler. It emits a result for
// every window index from the first observed window onward, including
// empty windows, so that downstream quality metrics can align emitted
// results with the oracle by index.
//
// Tuples that are not yet late are stored once, in a finger B-tree ordered
// by (TS, Seq); a window's aggregate is materialized from the tree when the
// window is emitted (fibacore.go).
type Op struct {
	spec      Spec
	agg       Factory
	policy    LatePolicy
	refineFor stream.Time // retain emitted state this long past the clock

	fib       fibaState // the open windows' tuples
	nextEmit  int64
	haveFirst bool
	clock     stream.Time
	started   bool
	stats     OpStats

	// The emitted windows the operator keeps: under RefineLate for
	// refineFor, with a feedback horizon (SetFeedback) for at least that long.
	kept      keptRing
	feedback  stream.Time // 0: no feedback reports
	nextFinal int64       // the next kept window to report
	finals    []Final     // reports not yet collected (Finals)

	// res collects what the call in progress emits. It is the operator's and
	// not the caller's slice because a call can end in a panic out of a
	// non-built-in aggregate after it has emitted something: that stays here,
	// and Drain or the next call hands it out.
	res []Result
	// emitTries counts the attempts at window nextEmit that ended in a panic.
	emitTries int
}

// maxEmitTries is how often a window's emission may panic before the
// operator gives the window up. A fault that passes (the first tries) costs
// nothing; a value a non-built-in aggregate chokes on every time costs the
// windows that hold it, each emitted as NaN with count 0 and counted in
// OpStats.EmitFailed, and is evicted with them — without the bound it would
// stall emission for good and the tree would grow without one.
const maxEmitTries = 3

// NewOp returns a window operator. refineFor bounds how long (in stream
// time past the operator clock) emitted window state is retained when
// policy is RefineLate; it is ignored for DropLate. It panics on an invalid
// spec.
func NewOp(spec Spec, agg Factory, policy LatePolicy, refineFor stream.Time) *Op {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Op{
		spec:      spec,
		agg:       agg,
		policy:    policy,
		refineFor: refineFor,
		fib:       newFibaState(agg, spec),
	}
}

// Final is one emitted window's feedback report: the value it was emitted
// with, and its complete value and tuple count once every tuple released up
// to its feedback horizon is in — stragglers a DropLate operator dropped from
// its output included.
type Final struct {
	Idx     int64
	Emitted float64
	Full    float64
	N       int64
}

// SetFeedback makes the operator keep every window it emits until horizon
// past the window's end, add the late tuples released meanwhile to it — under
// DropLate silently: results and OpStats are as without feedback — and report
// the window once (Finals) when the clock passes that point, provided a tuple
// ever fell in it. A horizon of 0 turns reporting off. Call it before the
// first tuple; a Restore keeps it.
func (o *Op) SetFeedback(horizon stream.Time) { o.feedback = horizon }

// Finals appends the windows reported since the last call to out, in window
// order.
func (o *Op) Finals(out []Final) []Final {
	out = append(out, o.finals...)
	o.finals = o.finals[:0]
	return out
}

// Stats returns cumulative counters.
func (o *Op) Stats() OpStats { return o.stats }

// Observe feeds one tuple at arrival-time position now, appending any
// emitted results to out. The tuple is stored before anything in the call can
// panic (see Factory), so a caller that recovers one must not feed it again.
func (o *Op) Observe(t stream.Tuple, now stream.Time, out []Result) []Result {
	o.observe(t, now)
	return o.Drain(out)
}

// observe is Observe with the results left in o.res.
func (o *Op) observe(t stream.Tuple, now stream.Time) {
	o.stats.TuplesIn++
	first, last := o.spec.WindowsFor(t.TS)
	if !o.haveFirst {
		o.haveFirst = true
		o.nextEmit = first
	}

	late := false
	for idx := first; idx <= last; idx++ {
		if idx < o.nextEmit {
			late = true
			if agg := o.kept.agg(idx); agg != nil {
				agg.Add(t.Value) // the window's complete value counts it either way
				if _, end := o.spec.Bounds(idx); o.policy == RefineLate && end+o.refineFor > o.clock {
					o.stats.LateRefined++
					o.res = append(o.res, o.result(idx, agg, now, true))
					o.stats.Refinements++
					continue
				}
			}
			o.stats.LateDrops++
			continue
		}
		// One tree insert covers every not-yet-emitted window containing
		// the tuple: each reads it back by event-time range at emission.
		o.fib.insert(t)
		break
	}
	if late {
		o.stats.LateTuples++
	}
	o.advance(t.TS, now)
}

// ObserveRun feeds ts[*pos:], a run of tuples in the order a disorder handler
// released them, nows[i] being the arrival-time position at which ts[i] was
// released; it is Observe called for each tuple in turn, to the last bit of
// state and output. *pos moves past a tuple before the tuple is touched, so a
// caller that recovers a panic (see Observe) carries on behind it by calling
// again with the same arguments.
//
// What a run saves is the per-tuple arithmetic. With windows below nextEmit
// emitted and lo and hi the ends of windows nextEmit−1 and nextEmit, a tuple
// with lo ≤ TS < hi is late for no window (its first window starts after
// TS−Size ≥ (nextEmit−1)·Slide, so is nextEmit or later), closes none (the
// clock stays below hi, the end of the next window to close) and lies in no
// pane an order-statistic window has sorted yet (those end at lo): all
// Observe does with it is count it, store it and raise the clock. Nearly
// every tuple a K-slack releases is of that kind — one per slide closes a
// window, a few in a thousand are stragglers — so a maximal stretch of them
// is found with two compares a tuple and stored by one tree append; kept
// windows are expired once behind it, nothing in the stretch reads them. The
// tuple that ends a stretch takes Observe's body, with its own now. Results
// collect in o.res until the run is through, so a panic strands none.
func (o *Op) ObserveRun(ts []stream.Tuple, nows []stream.Time, pos *int, out []Result) []Result {
	for i := *pos; i < len(ts); i = *pos {
		_, lo := o.spec.Bounds(o.nextEmit - 1)
		hi := lo + o.spec.Slide
		if o.haveFirst && o.started && o.clock < hi { // else: nothing emitted yet, or an emission is held up
			clock, j := o.clock, i
			for ; j < len(ts) && ts[j].TS >= lo && ts[j].TS < hi; j++ {
				clock = max(clock, ts[j].TS)
			}
			if j > i {
				*pos = j
				o.stats.TuplesIn += int64(j - i)
				o.fib.insertRun(ts[i:j])
				o.clock = clock
				o.expireKept()
				continue
			}
		}
		*pos = i + 1
		o.observe(ts[i], nows[i])
	}
	return o.Drain(out)
}

// Advance moves the operator's event-time clock to at least eventTS and
// emits every window that closes, at arrival-time position now. The cq
// engine calls it for post-buffer progress signals (heartbeats).
func (o *Op) Advance(eventTS, now stream.Time, out []Result) []Result {
	o.advance(eventTS, now)
	return o.Drain(out)
}

// advance is Advance with the results left in o.res.
func (o *Op) advance(eventTS, now stream.Time) {
	if !o.started || eventTS > o.clock {
		o.clock = eventTS
		o.started = true
	}
	if !o.haveFirst {
		return
	}
	lastClosed := o.spec.LastClosed(o.clock)
	for idx := o.nextEmit; idx <= lastClosed; idx++ {
		o.emit(idx, now)
	}
	o.expireKept()
}

// Drain appends to out what a call that ended in a panic had emitted before
// it; every call that returns has done so itself.
func (o *Op) Drain(out []Result) []Result {
	out = append(out, o.res...)
	o.res = o.res[:0]
	return out
}

// Flush emits every still-open window (in index order) at arrival-time
// position now, regardless of the clock. Call it at end of stream.
func (o *Op) Flush(now stream.Time, out []Result) []Result {
	if !o.haveFirst {
		return out
	}
	maxIdx := o.nextEmit - 1
	// The last occupied window is the last one containing the tree's maximum
	// timestamp — evicted entries can only have belonged to windows below
	// nextEmit, which never re-emit.
	if k, ok := o.fib.tree.MaxKey(); ok {
		if idx := floorDiv(k.TS, o.spec.Slide); idx > maxIdx {
			maxIdx = idx
		}
	}
	for idx := o.nextEmit; idx <= maxIdx; idx++ {
		o.emit(idx, now)
	}
	return o.Drain(out)
}

// emit produces the primary result for window idx and advances nextEmit.
//
// Materializing the window can run code the operator does not own — the
// ordered scan feeds a non-built-in aggregate's Add, and result reads its
// Value — so all of it happens before the operator changes anything but the
// try count. A panic in there leaves the window unemitted and its tuples in
// the tree: whoever recovers it loses nothing, and the next Advance tries the
// window again, maxEmitTries times in all.
func (o *Op) emit(idx int64, now stream.Time) {
	start, end := o.spec.Bounds(idx)
	r := Result{Idx: idx, Start: start, End: end, Value: math.NaN(), EmitArrival: now}
	var agg Aggregate
	keep := o.policy == RefineLate || o.feedback > 0
	if o.emitTries < maxEmitTries {
		o.emitTries++ // stands if the materialization panics
		agg = o.fib.aggFor(o.agg, start, end, keep)
		empty := agg == nil
		if empty {
			agg = o.agg.New()
		}
		r = o.result(idx, agg, now, false)
		if empty {
			o.stats.EmptyEmitted++
		}
	} else {
		o.stats.EmitFailed++
	}
	o.emitTries = 0
	o.res = append(o.res, r)
	o.stats.Emitted++
	if keep {
		if o.kept.len() == 0 {
			// Every window before idx has been reported or was never kept.
			o.nextFinal = idx
		}
		o.kept.push(idx, keptWin{agg: agg, emitted: r.Value})
	}
	if idx >= o.nextEmit {
		o.nextEmit = idx + 1
	}
	// Bulk-evict the prefix no future window can read: every window from
	// nextEmit on starts at or after nextEmit·Slide, and anything older
	// arriving later is late by definition (handled off-tree).
	o.fib.tree.EvictBelow(stream.Time(o.nextEmit) * o.spec.Slide)
}

func (o *Op) result(idx int64, agg Aggregate, now stream.Time, refinement bool) Result {
	start, end := o.spec.Bounds(idx)
	return Result{
		Idx:         idx,
		Start:       start,
		End:         end,
		Value:       agg.Value(),
		Count:       agg.N(),
		EmitArrival: now,
		Refinement:  refinement,
	}
}

// expireKept reports the kept windows whose feedback horizon has passed and
// drops those whose refinement horizon has too, bounding memory under
// RefineLate and feedback alike. Every clock advance calls it, so the test
// for an empty ring is kept small enough to inline.
func (o *Op) expireKept() {
	if o.kept.len() > 0 {
		o.sweepKept()
	}
}

// sweepKept is expireKept over a ring with windows in it: the ring is in
// window order, so reporting and expiry both stop at the first window still
// inside its horizon.
func (o *Op) sweepKept() {
	if o.feedback > 0 {
		for ; o.nextFinal < o.kept.hi(); o.nextFinal++ {
			if _, end := o.spec.Bounds(o.nextFinal); end+o.feedback > o.clock {
				break
			}
			if w := o.kept.at(o.nextFinal); w.agg != nil && w.agg.N() > 0 {
				o.finals = append(o.finals, Final{Idx: o.nextFinal, Emitted: w.emitted, Full: w.agg.Value(), N: w.agg.N()})
			}
		}
	}
	keepFor := o.feedback
	if o.policy == RefineLate {
		keepFor = max(keepFor, o.refineFor)
	}
	for o.kept.len() > 0 {
		if _, end := o.spec.Bounds(o.kept.lo); end+keepFor > o.clock {
			break
		}
		o.kept.pop()
	}
}

// keptRing holds emitted windows lo, lo+1, … in order — the operator emits
// every window index once, in order, so the ring has no gaps — with a head
// offset for O(1) expiry; the dead prefix is reclaimed once it dominates.
type keptRing struct {
	wins []keptWin // wins[head:] are windows lo, lo+1, …
	head int
	lo   int64
}

// keptWin is one kept window: the aggregate it was emitted with, still
// taking late tuples (nil when its emission failed), and the value emitted.
type keptWin struct {
	agg     Aggregate
	emitted float64
}

func (r *keptRing) len() int              { return len(r.wins) - r.head }
func (r *keptRing) hi() int64             { return r.lo + int64(r.len()) }
func (r *keptRing) at(idx int64) *keptWin { return &r.wins[r.head+int(idx-r.lo)] }

// agg returns window idx's kept aggregate, or nil when it is not kept.
func (r *keptRing) agg(idx int64) Aggregate {
	if idx < r.lo || idx >= r.hi() {
		return nil
	}
	return r.at(idx).agg
}

// push appends window idx, the next after the last kept one (or the first).
func (r *keptRing) push(idx int64, w keptWin) {
	if r.len() == 0 {
		r.wins, r.head, r.lo = r.wins[:0], 0, idx
	}
	r.wins = append(r.wins, w)
}

// pop drops the oldest kept window.
func (r *keptRing) pop() {
	r.wins[r.head] = keptWin{}
	r.head++
	r.lo++
	if r.head >= 64 && r.head*2 >= len(r.wins) {
		n := copy(r.wins, r.wins[r.head:])
		clear(r.wins[n:])
		r.wins, r.head = r.wins[:n], 0
	}
}

// Primary filters rs to primary (non-refinement) results, preserving order.
func Primary(rs []Result) []Result {
	out := rs[:0:0]
	for _, r := range rs {
		if !r.Refinement {
			out = append(out, r)
		}
	}
	return out
}
