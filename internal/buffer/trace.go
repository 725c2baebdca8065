package buffer

import (
	"slices"

	"repro/internal/obs/tracez"
	"repro/internal/stream"
)

// Traced wraps any Handler and mirrors its activity into a flight
// recorder as delta events: tuples inserted, released and released out
// of order, plus every slack change. It derives the
// deltas from the handler's own cumulative Stats — no hooks in the
// handlers' hot loops — but only when its driver calls Sync: the executor
// does so once per step (cq.Exec), so a batch of any size costs one
// maximum of its event times (Advance), one Stats read and at most four events,
// and activity a panic cut off from its Sync rides on the next one. Event
// timestamps are the maximum event time seen, i.e. the buffer's clock, so
// traces replay deterministically under the simulation harness.
//
// One wrapper may feed several tracers — the flight recorders of every query
// a shared disorder pass serves (cq.Exec.Join) — with the same events.
//
// Traced is a Handler and is driven single-writer like any handler; the
// tracers it feeds are safe for concurrent use.
type Traced struct {
	inner Handler
	trs   []*tracez.Tracer

	prev  Stats
	prevK stream.Time
	kInit bool
	at    stream.Time
}

// NewTraced wraps h so its activity is recorded by tr.
func NewTraced(h Handler, tr *tracez.Tracer) *Traced {
	return &Traced{inner: h, trs: []*tracez.Tracer{tr}}
}

// Mirror records the wrapper's activity into tr as well. Events are deltas,
// so tr reads as if it had been there from the start only when it is added
// before the handler's first item.
func (b *Traced) Mirror(tr *tracez.Tracer) { b.trs = append(b.trs, tr) }

// Split stops recording into tr and returns a wrapper around h — a copy of
// the wrapped handler, to be driven on its own — that carries tr's events on
// from where this wrapper leaves them.
func (b *Traced) Split(tr *tracez.Tracer, h Handler) *Traced {
	b.trs = slices.DeleteFunc(b.trs, func(t *tracez.Tracer) bool { return t == tr })
	c := *b
	c.inner, c.trs = h, []*tracez.Tracer{tr}
	return &c
}

// Insert implements Handler.
func (b *Traced) Insert(it stream.Item, out []stream.Tuple) []stream.Tuple {
	at := it.Tuple.TS
	if it.Heartbeat {
		at = it.Watermark
	}
	b.Advance(at)
	return b.inner.Insert(it, out)
}

// Flush implements Handler.
func (b *Traced) Flush(out []stream.Tuple) []stream.Tuple {
	return b.inner.Flush(out)
}

// Advance moves the wrapper's event-time clock to at if that is later: at
// is the event time of an item the wrapped handler was given (a tuple's TS,
// a heartbeat's watermark). A driver that inserts into the wrapped handler
// itself (cq.Exec does, to pick the handler's batched path by its concrete
// type) calls it once for a batch, with the batch's largest: the clock is
// only read by Sync, so one maximum is as good as a step per item.
func (b *Traced) Advance(at stream.Time) {
	if at > b.at {
		b.at = at
	}
}

// Sync records the handler's activity since the previous call: one event
// per non-zero delta with N = the count, and the slack if it changed (the
// first call always reports it).
func (b *Traced) Sync() {
	st := b.inner.Stats()
	k := b.inner.K()
	kChanged := !b.kInit || k != b.prevK
	for _, tr := range b.trs {
		tr.BufferSync(int64(b.at),
			st.Inserted-b.prev.Inserted,
			st.Released-b.prev.Released,
			st.Stragglers-b.prev.Stragglers,
			int64(k), kChanged)
	}
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
