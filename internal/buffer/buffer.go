// Package buffer implements disorder handling for out-of-order streams:
// slack buffers that hold tuples back and release them in event-time order.
//
// The common mechanism is a K-slack sort buffer: tuples are kept ordered
// on event time (tupleRing) and a tuple with event timestamp ts is released
// once the stream clock (the maximum event timestamp observed so far)
// reaches ts + K. Larger K tolerates more lateness at the cost of result
// latency; K = 0 is "no disorder handling"; K tracking the maximum
// observed lateness ("MAX-slack") is the conservative baseline.
//
// Handlers never drop tuples: a straggler that arrives after its release
// point (it is later than the current slack can compensate) is forwarded
// immediately, out of order, and counted. Downstream windowed operators
// decide what out-of-order emission means for result quality — that
// decision is the subject of the paper this repository reproduces.
package buffer

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/stats"
	"repro/internal/stream"
)

// Handler consumes stream items in arrival order and releases tuples
// ordered by event time, within the guarantees of its slack policy.
//
// Insert and Flush append released tuples to out and return the extended
// slice, letting callers reuse one scratch slice across calls.
type Handler interface {
	// Insert accepts the next item in arrival order.
	Insert(it stream.Item, out []stream.Tuple) []stream.Tuple
	// Flush releases every tuple still buffered, in event-time order.
	Flush(out []stream.Tuple) []stream.Tuple
	// K returns the current slack.
	K() stream.Time
	// Len returns the number of buffered tuples.
	Len() int
	// Stats returns cumulative counters.
	Stats() Stats
	// String names the handler and its policy.
	String() string
}

// Stats are cumulative counters of a handler's activity.
type Stats struct {
	Inserted   int64       // data tuples accepted
	Released   int64       // data tuples released
	Stragglers int64       // released tuples that violated event-time order
	MaxHeld    int         // high-water mark of buffered tuples
	MaxK       stream.Time // largest slack used
	// Shed counts tuples dropped upstream of the handler by an overload
	// policy before they could be inserted. Handlers themselves never
	// drop; the executor records the count here so one stats struct
	// describes everything that happened to the input.
	Shed int64
}

// String renders the counters.
func (s Stats) String() string {
	return fmt.Sprintf("buffer{in=%d out=%d stragglers=%d shed=%d maxHeld=%d maxK=%d}",
		s.Inserted, s.Released, s.Stragglers, s.Shed, s.MaxHeld, s.MaxK)
}

// tupleRing is an ordered buffer on (TS, Seq): a slice kept sorted
// ascending with a head index for O(1) pop-front. It replaces the binary
// min-heap that previously backed the slack buffers: every release is a head
// increment, where the heap paid a full sift of 48-byte tuple swaps per pop,
// and an insert lands near the end — see insert.
// Pop order is identical to the heap's: ascending (TS, Seq).
type tupleRing struct {
	buf  []stream.Tuple // sorted ascending by tupleLess; live region buf[head:]
	head int
}

func tupleLess(a, b stream.Tuple) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	return a.Seq < b.Seq
}

func (h *tupleRing) len() int             { return len(h.buf) - h.head }
func (h *tupleRing) first() *stream.Tuple { return &h.buf[h.head] }

func (h *tupleRing) push(t stream.Tuple) { h.insert(&t) }

// insert is push for a caller that has the tuple in place (a 48-byte copy per
// call shows in the executor's profile).
//
// Under real disorder most arrivals are not the newest buffered — 65 in 100
// with exponential delays of a tenth of the slack — but they are close to it:
// a tuple delayed by d sorts behind only the tuples of the last d time units
// that have already arrived, five on average in that stream. So the tuple
// walks down from the end, shifting what it passes as it goes: a handful of
// steps and one hard-to-predict branch, the loop's exit. A binary search over
// the live region is a coin flip at each of its six steps there.
func (h *tupleRing) insert(t *stream.Tuple) {
	h.buf = append(h.buf, *t)
	// The key in locals: through t the compiler must reload it after every
	// store to buf, which it cannot tell apart from *t.
	i, ts, seq := len(h.buf)-1, t.TS, t.Seq
	after := func(b *stream.Tuple) bool { return b.TS > ts || b.TS == ts && b.Seq > seq }
	stop := max(h.head, i-insertWalk)
	for ; i > stop && after(&h.buf[i-1]); i-- {
		h.buf[i] = h.buf[i-1]
	}
	if i == stop && i > h.head && after(&h.buf[i-1]) {
		i = h.openBelow(i, t)
	}
	h.buf[i] = *t
}

// insertWalk bounds the walk: a tuple delayed far beyond the usual (a
// heavy-tailed delay under a slack of seconds buffers thousands) is searched
// for and the tail shifted by one memmove.
const insertWalk = 16

// openBelow moves the gap at buf[gap] down to where t sorts among
// buf[head:gap], which holds at least one tuple that sorts after t, and
// returns the gap's new index. The search is for the upper bound of t.TS
// alone and halves a length instead of moving two ends, so the one compare
// left in a step sets a mask and no branch rides on it; equal timestamps,
// few, are then settled by Seq.
func (h *tupleRing) openBelow(gap int, t *stream.Tuple) int {
	live := h.buf[h.head:gap]
	lo := 0
	for n := len(live); n > 1; {
		half := n >> 1
		var right int
		if live[lo+half-1].TS <= t.TS {
			right = 1
		}
		lo += half & -right
		n -= half
	}
	if live[lo].TS <= t.TS {
		lo++
	}
	for lo > 0 && live[lo-1].TS == t.TS && t.Seq < live[lo-1].Seq {
		lo--
	}
	lo += h.head
	copy(h.buf[lo+1:gap+1], h.buf[lo:gap])
	return lo
}

func (h *tupleRing) pop() stream.Tuple {
	t := h.buf[h.head]
	h.head++
	if h.head == len(h.buf) {
		h.buf, h.head = h.buf[:0], 0
	} else if h.head >= 64 && h.head*2 >= len(h.buf) {
		// Reclaim the dead prefix once it dominates the backing array.
		n := copy(h.buf, h.buf[h.head:])
		h.buf, h.head = h.buf[:n], 0
	}
	return t
}

// sorted returns a copy of the live region, ascending by (TS, Seq).
func (h *tupleRing) sorted() []stream.Tuple {
	out := make([]stream.Tuple, h.len())
	copy(out, h.buf[h.head:])
	return out
}

// restore replaces the contents with ts, which may be in any order.
func (h *tupleRing) restore(ts []stream.Tuple) {
	h.buf = append(h.buf[:0], ts...)
	h.head = 0
	slices.SortFunc(h.buf, func(a, b stream.Tuple) int {
		if c := cmp.Compare(a.TS, b.TS); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
}

// slackBuffer is the shared K-slack mechanism. Policy types embed it and
// adjust k.
type slackBuffer struct {
	heap        tupleRing
	clock       stream.Time // max event timestamp observed
	started     bool
	k           stream.Time
	maxReleased stream.Time
	hasReleased bool
	stats       Stats
}

// advanceClock raises the stream clock and reports whether it moved.
func (b *slackBuffer) advanceClock(ts stream.Time) bool {
	if !b.started || ts > b.clock {
		b.clock = ts
		b.started = true
		return true
	}
	return false
}

// drain releases all tuples whose release point has passed.
func (b *slackBuffer) drain(out []stream.Tuple) []stream.Tuple {
	for b.heap.len() > 0 && b.heap.first().TS <= b.clock-b.k {
		out = b.release(out, b.heap.pop())
	}
	return out
}

func (b *slackBuffer) release(out []stream.Tuple, t stream.Tuple) []stream.Tuple {
	if b.hasReleased && t.TS < b.maxReleased {
		b.stats.Stragglers++
	}
	if !b.hasReleased || t.TS > b.maxReleased {
		b.maxReleased = t.TS
		b.hasReleased = true
	}
	b.stats.Released++
	return append(out, t)
}

func (b *slackBuffer) insertTuple(t stream.Tuple, out []stream.Tuple) []stream.Tuple {
	b.stats.Inserted++
	b.advanceClock(t.TS)
	b.heap.push(t)
	if n := b.heap.len(); n > b.stats.MaxHeld {
		b.stats.MaxHeld = n
	}
	if b.k > b.stats.MaxK {
		b.stats.MaxK = b.k
	}
	return b.drain(out)
}

func (b *slackBuffer) insertHeartbeat(w stream.Time, out []stream.Tuple) []stream.Tuple {
	b.advanceClock(w)
	return b.drain(out)
}

// Flush releases everything buffered, in event-time order.
func (b *slackBuffer) Flush(out []stream.Tuple) []stream.Tuple {
	for b.heap.len() > 0 {
		out = b.release(out, b.heap.pop())
	}
	return out
}

// K returns the current slack.
func (b *slackBuffer) K() stream.Time { return b.k }

// Len returns the number of buffered tuples.
func (b *slackBuffer) Len() int { return b.heap.len() }

// Stats returns cumulative counters.
func (b *slackBuffer) Stats() Stats { return b.stats }

// Clock returns the current stream clock (max event timestamp observed).
func (b *slackBuffer) Clock() stream.Time { return b.clock }

// KSlack is the classic fixed-slack buffer: release when the clock has
// advanced K past a tuple's event time. SetK makes it externally tunable,
// which is how the adaptive controller in internal/core drives it.
type KSlack struct {
	slackBuffer
}

// NewKSlack returns a buffer with fixed slack k. It panics if k < 0.
func NewKSlack(k stream.Time) *KSlack {
	if k < 0 {
		panic("buffer: negative slack")
	}
	b := &KSlack{}
	b.k = k
	return b
}

// Insert implements Handler.
func (b *KSlack) Insert(it stream.Item, out []stream.Tuple) []stream.Tuple {
	if it.Heartbeat {
		return b.insertHeartbeat(it.Watermark, out)
	}
	return b.insertTuple(it.Tuple, out)
}

// SetK changes the slack. Lowering K takes effect on the next insert or
// heartbeat (buffered tuples past the new release point drain then).
// Negative values clamp to zero.
func (b *KSlack) SetK(k stream.Time) {
	if k < 0 {
		k = 0
	}
	b.k = k
	if k > b.stats.MaxK {
		b.stats.MaxK = k
	}
}

// String implements Handler.
func (b *KSlack) String() string { return fmt.Sprintf("kslack(K=%d)", b.k) }

// Zero returns a pass-through handler (K = 0): no disorder compensation,
// minimal latency. It is the "no handling" baseline.
func Zero() *KSlack { return NewKSlack(0) }

// MaxSlack grows its slack to the maximum lateness ever observed. After a
// warm-up it forwards no stragglers on stationary delay distributions,
// which makes it the conservative full-quality baseline with the worst
// latency — and on heavy-tailed delays its K grows without bound.
type MaxSlack struct {
	slackBuffer
}

// NewMaxSlack returns a MAX-slack buffer (initial slack 0).
func NewMaxSlack() *MaxSlack { return &MaxSlack{} }

// Insert implements Handler.
func (b *MaxSlack) Insert(it stream.Item, out []stream.Tuple) []stream.Tuple {
	if it.Heartbeat {
		return b.insertHeartbeat(it.Watermark, out)
	}
	t := it.Tuple
	// Lateness relative to the clock before this tuple advances it.
	if b.started {
		if late := b.clock - t.TS; late > b.k {
			b.k = late
		}
	}
	return b.insertTuple(t, out)
}

// String implements Handler.
func (b *MaxSlack) String() string { return fmt.Sprintf("maxslack(K=%d)", b.k) }

// Percentile sets its slack to a quantile of the observed lateness
// distribution, re-evaluated every UpdateEvery tuples and read from an exact
// log-bucket histogram (stats.LogHist: exact below 128 ms, at most a bucket
// above). It is the heuristic watermark baseline (à la "bounded
// out-of-orderness" watermarks tuned to a percentile): quality-agnostic —
// the percentile bounds the fraction of straggling tuples, not the result
// error.
type Percentile struct {
	slackBuffer
	p           float64
	lateness    stats.LogHist
	updateEvery int64
	sinceUpdate int64
}

// NewPercentile returns a buffer that targets the p-th percentile (p in
// (0, 1]) of tuple lateness, refreshing its slack estimate every
// updateEvery tuples. It panics on out-of-range arguments.
func NewPercentile(p float64, updateEvery int64) *Percentile {
	if p <= 0 || p > 1 {
		panic("buffer: percentile must be in (0, 1]")
	}
	if updateEvery <= 0 {
		panic("buffer: updateEvery must be positive")
	}
	return &Percentile{p: p, updateEvery: updateEvery}
}

// Insert implements Handler.
func (b *Percentile) Insert(it stream.Item, out []stream.Tuple) []stream.Tuple {
	if it.Heartbeat {
		return b.insertHeartbeat(it.Watermark, out)
	}
	t := it.Tuple
	if b.started {
		b.lateness.Add(float64(b.clock - t.TS)) // an early tuple counts as 0
		b.sinceUpdate++
		if b.sinceUpdate >= b.updateEvery {
			b.sinceUpdate = 0
			b.k = stream.Time(b.lateness.Quantile(b.p))
		}
	}
	return b.insertTuple(t, out)
}

// String implements Handler.
func (b *Percentile) String() string {
	return fmt.Sprintf("percentile(p=%g,every=%d,K=%d)", b.p, b.updateEvery, b.k)
}
