package tracez

import (
	"math"
	"sync"
	"sync/atomic"
)

// Provenance explains one emitted window: how many tuples contributed,
// what the buffer slack was when the window sealed, how many stragglers
// and sheds the pipeline had absorbed, and what the controller believed
// its error to be against the declared bound θ. Counters that cannot be
// attributed to a single window exactly (stragglers under the concurrent
// executor) are deltas since the previous seal — causally honest, exact
// under the synchronous executor.
type Provenance struct {
	Win     int64  `json:"win"`
	Key     uint64 `json:"key,omitempty"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Count   int64  `json:"count"`
	KAtSeal int64  `json:"kAtSeal"`
	// Stragglers released since the previous seal — the out-of-order
	// tuples this window (or its immediate neighborhood) had to absorb.
	Stragglers int64 `json:"stragglers"`
	// Shed is the cumulative count of overload-dropped tuples at seal.
	Shed    int64   `json:"shed"`
	EstErr  float64 `json:"estErr"`
	Theta   float64 `json:"theta,omitempty"`
	Latency int64   `json:"latencyMs"`
}

// Dump is one flight-recorder snapshot: the retained events plus the
// recent per-window provenance, stamped with why it was taken.
type Dump struct {
	Query      string       `json:"query"`
	Reason     string       `json:"reason"`
	At         int64        `json:"at"`
	Win        int64        `json:"win,omitempty"`
	Provenance []Provenance `json:"provenance,omitempty"`
	Events     []Event      `json:"events"`
}

// provCap bounds the per-tracer provenance ring.
const provCap = 512

// dumpEvents bounds the events one dump copies: the newest of the ring.
// A violation, panic or breaker trip is explained by what led up to it, and
// a full default ring is 16× this — megabytes a copy.
const dumpEvents = 4096

// Tracer is one query's handle into the flight recorder: the pipeline
// stages call its methods, it turns them into Events, maintains the
// per-window provenance ring, and feeds realized-error samples to the
// quality-SLO watchdog. Every method tolerates a nil receiver, so an
// untraced pipeline pays a single pointer check.
//
// The counters backing provenance (current K, cumulative stragglers and
// sheds, last estimated error) are atomics updated by whichever stage
// owns the fact; Emit snapshots them, which is exact under the
// synchronous executor and causally consistent under the concurrent one.
type Tracer struct {
	rec   *Recorder
	query string

	wd   *Watchdog
	sink func(Dump)

	curK       atomic.Int64
	stragglers atomic.Int64
	shed       atomic.Int64
	estErrBits atomic.Uint64
	thetaBits  atomic.Uint64

	provMu    sync.Mutex
	prov      []Provenance // ring of the last provCap provenance records
	provStart int          // index of the oldest entry once the ring wrapped
	sealStrag int64        // stragglers counter at the previous seal
}

// New returns a tracer recording into rec on behalf of the named query.
func New(rec *Recorder, query string) *Tracer {
	return &Tracer{rec: rec, query: query}
}

// Query returns the query name the tracer was built for.
func (t *Tracer) Query() string {
	if t == nil {
		return ""
	}
	return t.query
}

// Recorder returns the underlying flight recorder (nil for a nil tracer).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// SetWatchdog attaches a quality-SLO watchdog: QualitySample feeds it,
// and entering violation records a KindViolation event plus an automatic
// flight-recorder dump. The watchdog's θ also lands in provenance.
func (t *Tracer) SetWatchdog(wd *Watchdog) {
	if t == nil {
		return
	}
	t.wd = wd
	if wd != nil {
		t.SetTheta(wd.Theta())
	}
}

// Watchdog returns the attached watchdog, if any.
func (t *Tracer) Watchdog() *Watchdog {
	if t == nil {
		return nil
	}
	return t.wd
}

// SetTheta records the query's declared quality bound for provenance.
func (t *Tracer) SetTheta(theta float64) {
	if t == nil {
		return
	}
	t.thetaBits.Store(math.Float64bits(theta))
}

// OnDump installs a sink invoked with every dump the tracer takes
// (automatic or on demand) — aqserver uses it for dump-to-file. Without one
// a dump copies nothing: the events stay in the ring, for /debug/aq/trace.
func (t *Tracer) OnDump(sink func(Dump)) {
	if t == nil {
		return
	}
	t.sink = sink
}

// Record appends a raw event to the flight recorder.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.rec.Record(ev)
}

// SourceBatch records one transport batch shipped by the source stage.
func (t *Tracer) SourceBatch(at int64, n int) {
	if t == nil {
		return
	}
	t.rec.Record(Event{At: at, Kind: KindSourceBatch, Stage: StageSource, N: int64(n)})
}

// Shed records n tuples lost upstream of the query (fan-out ring laps).
func (t *Tracer) Shed(at int64, n int64) {
	if t == nil {
		return
	}
	t.shed.Add(n)
	t.rec.Record(Event{At: at, Kind: KindShed, Stage: StageSource, N: n})
}

// Retry records one source retry attempt.
func (t *Tracer) Retry(at int64, attempt int) {
	if t == nil {
		return
	}
	t.rec.Record(Event{At: at, Kind: KindRetry, Stage: StageSource, N: int64(attempt)})
}

// BreakerTrip records a circuit-breaker closed→open transition and takes
// an automatic flight-recorder dump.
func (t *Tracer) BreakerTrip(at int64) {
	if t == nil {
		return
	}
	t.rec.Record(Event{At: at, Kind: KindBreakerTrip, Stage: StageSource})
	t.Dump("breaker-trip", at, -1)
}

// Panic records an isolated stage panic and takes an automatic dump.
func (t *Tracer) Panic(stage Stage, at int64, msg string) {
	if t == nil {
		return
	}
	t.rec.Record(Event{At: at, Kind: KindPanic, Stage: stage, Msg: msg})
	t.Dump("panic", at, -1)
}

// BufferSync records the disorder buffer's activity since the previous
// call as delta events: tuples inserted, released and released out of
// order, plus the slack when it changed. The executor (cq.Exec) derives
// the deltas from the handler's cumulative stats once per step, so any
// handler is traceable without hot-path hooks or a wrapper: one event per
// kind with N = count, never one per tuple.
func (t *Tracer) BufferSync(at int64, inserted, released, stragglers, k int64, kChanged bool) {
	if t == nil {
		return
	}
	if inserted > 0 {
		t.rec.Record(Event{At: at, Kind: KindInsert, Stage: StageBuffer, N: inserted})
	}
	if released > 0 {
		t.rec.Record(Event{At: at, Kind: KindRelease, Stage: StageBuffer, N: released})
	}
	if stragglers > 0 {
		t.stragglers.Add(stragglers)
		t.rec.Record(Event{At: at, Kind: KindStraggler, Stage: StageBuffer, N: stragglers})
	}
	if kChanged {
		t.curK.Store(k)
		t.rec.Record(Event{At: at, Kind: KindKSet, Stage: StageBuffer, K: k})
	}
}

// AdaptDecision records one controller adaptation step: the slack chosen
// and the model-estimated error at that slack.
func (t *Tracer) AdaptDecision(at, k int64, estErr float64) {
	if t == nil {
		return
	}
	t.estErrBits.Store(math.Float64bits(estErr))
	t.rec.Record(Event{At: at, Kind: KindKAdapt, Stage: StageController, K: k, V: estErr})
}

// QualitySample records a window's finalized realized error and feeds
// the watchdog. Entering violation records a KindViolation event and an
// automatic dump naming the violating window; leaving it records
// KindViolationEnd with the violation's wall-clock length.
func (t *Tracer) QualitySample(at, win int64, realized float64) {
	if t == nil {
		return
	}
	t.rec.Record(Event{At: at, Kind: KindQuality, Stage: StageController, Win: win, V: realized})
	if t.wd == nil {
		return
	}
	started, endedMs := t.wd.Observe(win, realized)
	if started {
		t.rec.Record(Event{At: at, Kind: KindViolation, Stage: StageWatchdog, Win: win, V: realized})
		t.Dump("quality-violation", at, win)
	}
	if endedMs >= 0 {
		t.rec.Record(Event{At: at, Kind: KindViolationEnd, Stage: StageWatchdog, Win: win, V: endedMs})
	}
}

// Emit records one emitted window result and seals its provenance: the
// contributing tuple count, the slack at seal, stragglers since the
// previous seal, cumulative sheds, and the controller's error estimate
// against θ.
func (t *Tracer) Emit(at int64, win, start, end int64, key uint64, count, latency int64) {
	if t == nil {
		return
	}
	k := t.curK.Load()
	t.rec.Record(Event{At: at, Kind: KindEmit, Stage: StageWindow,
		Win: win, Key: key, N: count, K: k, V: float64(latency)})
	p := Provenance{
		Win: win, Key: key, Start: start, End: end, Count: count,
		KAtSeal: k,
		Shed:    t.shed.Load(),
		EstErr:  math.Float64frombits(t.estErrBits.Load()),
		Theta:   math.Float64frombits(t.thetaBits.Load()),
		Latency: latency,
	}
	strag := t.stragglers.Load()
	t.provMu.Lock()
	p.Stragglers = strag - t.sealStrag
	t.sealStrag = strag
	if len(t.prov) < provCap {
		t.prov = append(t.prov, p)
	} else {
		t.prov[t.provStart] = p
		t.provStart = (t.provStart + 1) % provCap
	}
	t.provMu.Unlock()
}

// Flush records the end-of-stream flush of the window stage.
func (t *Tracer) Flush(at int64) {
	if t == nil {
		return
	}
	t.rec.Record(Event{At: at, Kind: KindFlush, Stage: StageWindow})
}

// Recovery records a crash recovery at the point its state is restored:
// replayed is the number of journal items about to be replayed past the
// snapshot, emitFloor the durable emission index below which results are
// suppressed (0 when none), truncatedBytes the torn-tail bytes repaired
// away.
func (t *Tracer) Recovery(at int64, replayed int, emitFloor int64, truncatedBytes int64) {
	if t == nil {
		return
	}
	t.rec.Record(Event{At: at, Kind: KindRecovery, Stage: StageDurable,
		N: int64(replayed), Win: emitFloor, V: float64(truncatedBytes)})
}

// Snapshot records a durable snapshot covering the given journal record
// count.
func (t *Tracer) Snapshot(at int64, records uint64) {
	if t == nil {
		return
	}
	t.rec.Record(Event{At: at, Kind: KindSnapshot, Stage: StageDurable, N: int64(records)})
}

// FanoutPublish records one batch published into a shared-source
// broadcast ring: seq is the ring sequence, n the batch's data tuples.
// At is the batch's last stream-time position.
func (t *Tracer) FanoutPublish(at int64, seq int64, n int) {
	if t == nil {
		return
	}
	t.rec.Record(Event{At: at, Kind: KindFanoutPublish, Stage: StageSource, Win: seq, N: int64(n)})
}

// WireBatch records a wire-provenance mark arriving at the receiver:
// batchID is the client's batch id (a repeated id marks a reconnect
// replay span), n the items delivered under it, sendMS the client's
// send wall-clock (Unix ms, carried in V). At is wall milliseconds.
func (t *Tracer) WireBatch(at int64, batchID uint64, n int, sendMS int64) {
	if t == nil {
		return
	}
	t.rec.Record(Event{At: at, Kind: KindWireBatch, Stage: StageSource, Win: int64(batchID), N: int64(n), V: float64(sendMS)})
}

// Log mirrors one structured-log record into the recorder. At is wall
// milliseconds (log records happen outside stream time).
func (t *Tracer) Log(at int64, msg string) {
	if t == nil {
		return
	}
	t.rec.Record(Event{At: at, Kind: KindLog, Stage: StageLog, Msg: msg})
}

// Provenances returns the retained per-window provenance oldest-first.
func (t *Tracer) Provenances() []Provenance {
	if t == nil {
		return nil
	}
	t.provMu.Lock()
	defer t.provMu.Unlock()
	out := make([]Provenance, 0, len(t.prov))
	out = append(out, t.prov[t.provStart:]...)
	out = append(out, t.prov[:t.provStart]...)
	return out
}

// ProvenanceFor returns the newest retained provenance record for the
// given window index.
func (t *Tracer) ProvenanceFor(win int64) (Provenance, bool) {
	if t == nil {
		return Provenance{}, false
	}
	ps := t.Provenances()
	for i := len(ps) - 1; i >= 0; i-- {
		if ps[i].Win == win {
			return ps[i], true
		}
	}
	return Provenance{}, false
}

// Dump takes a flight-recorder snapshot (the newest dumpEvents events +
// provenance) and hands it to the OnDump sink; with no sink installed there
// is no one to read it, and it takes nothing. win < 0 means "no specific
// window".
func (t *Tracer) Dump(reason string, at, win int64) {
	if t == nil || t.sink == nil {
		return
	}
	t.sink(Dump{
		Query:      t.query,
		Reason:     reason,
		At:         at,
		Win:        win,
		Provenance: t.Provenances(),
		Events:     t.rec.Last(dumpEvents),
	})
}
