package buffer

import (
	"repro/internal/stream"
	"repro/internal/window"
)

// BatchHandler is implemented by handlers that have a batched insert fast
// path, amortizing per-call overhead across a whole transport batch.
//
// A caller that holds a handler as an interface value must not take the
// method's presence as licence to use it: a type that embeds *KSlack and
// overrides Insert (a test's fault injector, a controller that moves K
// between tuples) inherits InsertBatch by promotion, and the inherited method
// feeds the embedded buffer directly — the override never runs. The executor
// (cq.Exec) therefore takes the batched path only for a handler whose
// concrete type is exactly *KSlack and calls Insert per item on every other;
// the InsertBatch function below asserts the interface and is for callers
// that know what they pass.
type BatchHandler interface {
	Handler
	// InsertBatch accepts items in arrival order, appending released
	// tuples to out and one entry per item to ends: ends[i] is len(out)
	// after item i was inserted, so a caller can attribute every released
	// tuple to the item whose insertion released it. Released tuples,
	// their order and the handler's Stats must be identical to calling
	// Insert once per item.
	InsertBatch(items []stream.Item, out []stream.Tuple, ends []int) ([]stream.Tuple, []int)
}

// FeedbackHandler is implemented by a handler that adapts to the error its
// query actually delivers — the adaptive controller of internal/core. The
// query's window operator keeps each window it emits until FeedbackHorizon
// past the window's end and then reports the window's emitted and complete
// value (window.Op.SetFeedback); a join query's operator reports the pairs it
// has emitted and missed so far instead. The executor
// (cq.Exec) inserts by InsertRun, which takes items up to the one after which
// the handler's next adaptation falls due — ends and out as InsertBatch has
// them, so len(ends) grows by the items taken — and reports whether it
// stopped there; and once the window operator has had what that released, it
// hands the operator's reports to Feedback, which runs the adaptation. A
// horizon of 0 means the handler takes no feedback: it is then inserted into
// item by item, by Insert.
type FeedbackHandler interface {
	Handler
	FeedbackHorizon() stream.Time
	InsertRun(items []stream.Item, out []stream.Tuple, ends []int) ([]stream.Tuple, []int, bool)
	Feedback(fs []window.Final)
}

// InsertBatch feeds items to h in order, using the handler's batched fast
// path when it has one and falling back to per-item Insert otherwise. The
// returned slices follow the BatchHandler.InsertBatch contract.
func InsertBatch(h Handler, items []stream.Item, out []stream.Tuple, ends []int) ([]stream.Tuple, []int) {
	if bh, ok := h.(BatchHandler); ok {
		return bh.InsertBatch(items, out, ends)
	}
	for _, it := range items {
		out = h.Insert(it, out)
		ends = append(ends, len(out))
	}
	return out, ends
}

// InsertBatch implements BatchHandler. The fast path matters for tuples
// that are already past their release point (always the case at K = 0 on
// in-order input, and common for stragglers at small K): instead of a
// heap push immediately followed by a pop — two sift passes — the tuple
// is released directly when it precedes everything buffered. Output,
// release order and stats are identical to the per-item path, including
// the transient MaxHeld high-water mark the bypassed push would have set.
func (b *KSlack) InsertBatch(items []stream.Item, out []stream.Tuple, ends []int) ([]stream.Tuple, []int) {
	for i := range items {
		it := &items[i] // a 64-byte Item is not worth copying to read it
		if it.Heartbeat {
			b.advanceClock(it.Watermark)
			out = b.drain(out)
			ends = append(ends, len(out))
			continue
		}
		t := &it.Tuple
		b.stats.Inserted++
		b.advanceClock(t.TS)
		if b.k > b.stats.MaxK {
			b.stats.MaxK = b.k
		}
		if t.TS <= b.clock-b.k && (b.heap.len() == 0 || tupleLess(*t, *b.heap.first())) {
			// Release-through: pushing t would pop it straight back off.
			if b.heap.len()+1 > b.stats.MaxHeld {
				b.stats.MaxHeld = b.heap.len() + 1
			}
			out = b.release(out, *t)
		} else {
			b.heap.insert(t)
			if n := b.heap.len(); n > b.stats.MaxHeld {
				b.stats.MaxHeld = n
			}
		}
		out = b.drain(out)
		ends = append(ends, len(out))
	}
	return out, ends
}
