package buffer

import (
	"repro/internal/obs/tracez"
	"repro/internal/stream"
)

// Traced wraps any Handler and mirrors its activity into a flight
// recorder as delta events: tuples inserted, released and released out
// of order, plus every slack change. Like Instrumented it derives the
// deltas from the handler's own cumulative Stats — no hooks in the
// handlers' hot loops — but only when its driver calls Sync: the executor
// does so once per step (cq.Exec), so a batch of any size costs one pass
// over its timestamps (Advance), one Stats read and at most four events,
// and activity a panic cut off from its Sync rides on the next one. Event
// timestamps are the maximum event time seen, i.e. the buffer's clock, so
// traces replay deterministically under the simulation harness.
//
// Traced is a Handler and is driven single-writer like any handler; the
// tracer it feeds is safe for concurrent use.
type Traced struct {
	inner Handler
	tr    *tracez.Tracer

	prev  Stats
	prevK stream.Time
	kInit bool
	at    stream.Time
}

// NewTraced wraps h so its activity is recorded by tr.
func NewTraced(h Handler, tr *tracez.Tracer) *Traced {
	return &Traced{inner: h, tr: tr}
}

// Insert implements Handler.
func (b *Traced) Insert(it stream.Item, out []stream.Tuple) []stream.Tuple {
	b.Advance([]stream.Item{it})
	return b.inner.Insert(it, out)
}

// Flush implements Handler.
func (b *Traced) Flush(out []stream.Tuple) []stream.Tuple {
	return b.inner.Flush(out)
}

// Advance moves the wrapper's event-time clock past items. A driver that
// inserts a batch into the wrapped handler itself (cq.Exec does, through
// Unwrap, to pick the handler's batched path by its concrete type) calls it
// once for the batch: the clock is only read by Sync, so one maximum over
// the batch is as good as a step per item.
func (b *Traced) Advance(items []stream.Item) {
	for i := range items {
		at := items[i].Tuple.TS
		if items[i].Heartbeat {
			at = items[i].Watermark
		}
		if at > b.at {
			b.at = at
		}
	}
}

// Sync records the handler's activity since the previous call: one event
// per non-zero delta with N = the count, and the slack if it changed (the
// first call always reports it).
func (b *Traced) Sync() {
	st := b.inner.Stats()
	k := b.inner.K()
	kChanged := !b.kInit || k != b.prevK
	b.tr.BufferSync(int64(b.at),
		st.Inserted-b.prev.Inserted,
		st.Released-b.prev.Released,
		st.Stragglers-b.prev.Stragglers,
		int64(k), kChanged)
	b.prev = st
	b.prevK, b.kInit = k, true
}

// K implements Handler.
func (b *Traced) K() stream.Time { return b.inner.K() }

// Len implements Handler.
func (b *Traced) Len() int { return b.inner.Len() }

// Stats implements Handler.
func (b *Traced) Stats() Stats { return b.inner.Stats() }

// String implements Handler, delegating to the wrapped handler.
func (b *Traced) String() string { return b.inner.String() }

// Unwrap returns the wrapped handler.
func (b *Traced) Unwrap() Handler { return b.inner }
