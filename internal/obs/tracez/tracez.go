// Package tracez is the causal layer on top of internal/obs: where the
// metrics in obs say *that* the pipeline adapts, sheds or violates its
// quality bound, tracez records *why a specific window* came out the way
// it did. It provides
//
//   - a low-overhead event model covering the pipeline stages (source
//     ingest, buffer insert/release, K-adaptation, window contribution,
//     emit, shed, straggler-drop, retry, breaker trip, panic, log),
//   - per-window provenance records (contributing tuple count, the slack
//     K at seal time, stragglers missed, shed counts, the estimated error
//     vs. the declared bound θ),
//   - an always-on lock-minimal flight recorder — a fixed-size ring of
//     recent events dumped automatically on panic isolation, breaker
//     trips and quality-bound violations, and on demand,
//   - a quality-SLO watchdog turning each query's θ into continuous
//     verdicts (violation counter, time-in-violation gauge, per-violation
//     snapshots),
//   - exporters: Chrome trace-event JSON (loadable in Perfetto) and a
//     deterministic SHA-256 trace digest for the DST harness.
//
// Everything is nil-tolerant: a nil *Tracer or *Recorder turns every hot
// path call into a single pointer check, so tracing is free when off.
// The package depends only on the standard library and internal/obs —
// the same dependency direction as the metrics layer, so the algorithmic
// packages never gain an upward dependency.
//
// Timestamps on events are stream-time positions (int64, milliseconds by
// convention), not wall-clock readings: a traced run under the
// deterministic simulation harness replays to a byte-identical digest.
package tracez

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// Kind enumerates the event types the pipeline records.
type Kind uint8

const (
	KindUnknown       Kind = iota
	KindSourceBatch        // source stage shipped a transport batch; N = items
	KindShed               // data tuples lost upstream of the query (ring laps); N = count
	KindInsert             // buffer accepted data tuples in one executor step; N = count
	KindRelease            // buffer released tuples downstream in that step; N = count
	KindStraggler          // released tuples violated event-time order; N = count
	KindKSet               // buffer slack changed across the step; K = new slack
	KindKAdapt             // controller adaptation decision; K = slack, V = estimated error
	KindQuality            // realized error finalized for a window; Win, V = realized error
	_                      // retired (shard-batch); the slot keeps the later kinds' numbers
	KindEmit               // window result emitted; Win, Key, N = count, K = slack at seal, V = latency
	KindFlush              // end-of-stream flush of the window stage
	KindRetry              // source retry attempt; N = attempt number
	KindBreakerTrip        // circuit breaker transitioned closed→open
	KindPanic              // stage panic isolated; Msg = panic value
	KindViolation          // quality-SLO watchdog entered violation; Win, V = realized error
	KindViolationEnd       // watchdog left violation; V = violation length (wall ms)
	KindLog                // structured log record mirrored into the recorder
	KindRecovery           // crash recovery: state restored; N = journal items replayed next, Win = emit floor, V = truncated bytes
	KindSnapshot           // durable snapshot written; N = journal records covered
	KindFanoutPublish      // shared-source ring published a batch; Win = ring seq, N = data tuples
	KindWireBatch          // wire-provenance mark observed at the receiver; Win = batch id, N = items, V = client send time (Unix ms)
)

// String names the kind (stable — the Chrome exporter and dumps use it).
func (k Kind) String() string {
	switch k {
	case KindSourceBatch:
		return "source-batch"
	case KindShed:
		return "shed"
	case KindInsert:
		return "insert"
	case KindRelease:
		return "release"
	case KindStraggler:
		return "straggler"
	case KindKSet:
		return "k-set"
	case KindKAdapt:
		return "k-adapt"
	case KindQuality:
		return "quality"
	case KindEmit:
		return "emit"
	case KindFlush:
		return "flush"
	case KindRetry:
		return "retry"
	case KindBreakerTrip:
		return "breaker-trip"
	case KindPanic:
		return "panic"
	case KindViolation:
		return "violation"
	case KindViolationEnd:
		return "violation-end"
	case KindLog:
		return "log"
	case KindRecovery:
		return "recovery"
	case KindSnapshot:
		return "snapshot"
	case KindFanoutPublish:
		return "fanout-publish"
	case KindWireBatch:
		return "wire-batch"
	default:
		return "unknown"
	}
}

// Stage identifies which pipeline stage recorded an event; the Chrome
// exporter renders one track per stage.
type Stage uint8

const (
	StageNone       Stage = iota
	StageSource           // source + transform stage
	StageBuffer           // disorder-handling buffer
	StageController       // adaptive-slack controller
	StageWindow           // window operator
	StageWatchdog         // quality-SLO watchdog
	StageLog              // structured logging
	StageDurable          // journal / snapshot / recovery machinery
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageSource:
		return "source"
	case StageBuffer:
		return "buffer"
	case StageController:
		return "controller"
	case StageWindow:
		return "window"
	case StageWatchdog:
		return "watchdog"
	case StageLog:
		return "log"
	case StageDurable:
		return "durable"
	default:
		return "none"
	}
}

// Event is one flight-recorder entry. Which fields are meaningful depends
// on Kind (see the Kind constants); unused fields stay zero. At is a
// stream-time position except for KindLog, which records wall time
// because log records happen outside stream time.
type Event struct {
	Seq   uint64  `json:"seq"`
	At    int64   `json:"at"`
	Kind  Kind    `json:"kind"`
	Stage Stage   `json:"stage"`
	Win   int64   `json:"win,omitempty"`
	Key   uint64  `json:"key,omitempty"`
	N     int64   `json:"n,omitempty"`
	K     int64   `json:"k,omitempty"`
	V     float64 `json:"v,omitempty"`
	Msg   string  `json:"msg,omitempty"`
}

// DefaultRecorderSize is the flight-recorder ring capacity when
// NewRecorder is given a non-positive size.
const DefaultRecorderSize = 1 << 16

// Recorder is the always-on flight recorder: a fixed-size ring of the
// most recent events, safe for concurrent writers. It is lock-minimal by
// design — writers claim a slot with one atomic increment and take only
// that slot's mutex (a global seqlock would be invisible to the race
// detector's happens-before model; per-slot mutexes make the same
// "last writer wins" protocol race-clean). Slot contention is only
// possible when the ring wraps a full capacity between two writers'
// claim and write, which never happens in practice.
//
// The ring's memory is allocated in chunks, each when an event first lands
// in it. A default ring is 6 MB of slots that hold a string each; allocated
// up front, one per query, they were nearly all of a starting server's heap
// and every garbage collection during start-up marked them whole, so that
// how long a server took to become ready hinged on where a few KB of other
// allocations fell relative to the collector's trigger. A ring that has
// recorded nothing now costs one pointer per chunk.
//
// All methods tolerate a nil receiver.
type Recorder struct {
	size   uint64
	chunks []atomic.Pointer[[]slot] // chunkSlots slots each (the last one the remainder)
	next   atomic.Uint64
}

const chunkSlots = 1024

type slot struct {
	mu  sync.Mutex
	set bool
	ev  Event
}

// NewRecorder returns a flight recorder holding the last size events
// (DefaultRecorderSize when size <= 0).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	return &Recorder{size: uint64(size), chunks: make([]atomic.Pointer[[]slot], (size+chunkSlots-1)/chunkSlots)}
}

// slot returns ring position i, allocating its chunk on first use. Writers
// racing for a new chunk all end up on the one that won.
func (r *Recorder) slot(i uint64) *slot {
	c := &r.chunks[i/chunkSlots]
	p := c.Load()
	if p == nil {
		fresh := make([]slot, min(chunkSlots, r.size-i/chunkSlots*chunkSlots))
		if c.CompareAndSwap(nil, &fresh) {
			p = &fresh
		} else {
			p = c.Load()
		}
	}
	return &(*p)[i%chunkSlots]
}

// Record appends one event, overwriting the oldest entry once the ring
// is full, and returns the event's sequence number. The event's Seq
// field is assigned by the recorder.
func (r *Recorder) Record(ev Event) uint64 {
	if r == nil {
		return 0
	}
	seq := r.next.Add(1) - 1
	s := r.slot(seq % r.size)
	ev.Seq = seq
	s.mu.Lock()
	s.ev = ev
	s.set = true
	s.mu.Unlock()
	return seq
}

// Len reports how many events the ring currently holds (at most its
// capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := r.next.Load()
	if n > r.size {
		return int(r.size)
	}
	return int(n)
}

// Total reports how many events were ever recorded (including those the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Events returns the retained events oldest-first. With concurrent
// writers the snapshot is a consistent-per-slot approximation: each
// entry is a complete event, ordering is by sequence number.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.newest(r.size)
}

// newest reads the n ring positions before the next write's, oldest first.
//
// Event seq lives in slot seq % size, so the ring read from the oldest live
// seq's slot round to the one before it is in seq order already. Only a writer
// racing the read — one that claimed a seq and has not yet overwritten the
// slot's event of a lap before, or wrote behind the read's start — can leave a
// slot out of that order, and then the copy is sorted.
func (r *Recorder) newest(n uint64) []Event {
	out := make([]Event, 0, min(n, uint64(r.Len())))
	end := r.next.Load() % r.size
	if start := (end + r.size - n) % r.size; start < end {
		out = r.appendSlots(out, start, end)
	} else {
		out = r.appendSlots(out, start, r.size)
		out = r.appendSlots(out, 0, end)
	}
	bySeq := func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) }
	if !slices.IsSortedFunc(out, bySeq) {
		slices.SortFunc(out, bySeq)
	}
	return out
}

// appendSlots appends the events held by ring positions [lo, hi), in
// position order, reading each slot under its lock.
func (r *Recorder) appendSlots(out []Event, lo, hi uint64) []Event {
	for lo < hi {
		c := lo / chunkSlots
		end := min(hi, (c+1)*chunkSlots)
		if p := r.chunks[c].Load(); p != nil {
			slots := (*p)[lo-c*chunkSlots : end-c*chunkSlots]
			for i := range slots {
				s := &slots[i]
				s.mu.Lock()
				if s.set {
					out = append(out, s.ev)
				}
				s.mu.Unlock()
			}
		}
		lo = end
	}
	return out
}

// Last returns the newest n retained events oldest-first (all of them
// when n <= 0 or exceeds the retained count), reading only their slots.
func (r *Recorder) Last(n int) []Event {
	if r == nil {
		return nil
	}
	if n <= 0 || uint64(n) > r.size {
		return r.newest(r.size)
	}
	return r.newest(uint64(n))
}
