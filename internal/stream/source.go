package stream

import "sort"

// Source is a pull-based producer of stream items in arrival order. Next
// returns the next item and true, or a zero Item and false once the stream
// is exhausted. Pull-based sources keep the experiment executor
// single-threaded and deterministic; the cq engine adapts them onto
// channels for concurrent execution.
type Source interface {
	Next() (Item, bool)
}

// SliceSource replays a fixed slice of items.
type SliceSource struct {
	items []Item
	pos   int
}

// NewSliceSource returns a source over items (not copied).
func NewSliceSource(items []Item) *SliceSource { return &SliceSource{items: items} }

// FromTuples returns a source that yields the tuples as data items, in the
// given order.
func FromTuples(tuples []Tuple) *SliceSource {
	items := make([]Item, len(tuples))
	for i, t := range tuples {
		items[i] = DataItem(t)
	}
	return NewSliceSource(items)
}

// Next implements Source.
func (s *SliceSource) Next() (Item, bool) {
	if s.pos >= len(s.items) {
		return Item{}, false
	}
	it := s.items[s.pos]
	s.pos++
	return it, true
}

// FuncSource adapts a function to the Source interface.
type FuncSource func() (Item, bool)

// Next implements Source.
func (f FuncSource) Next() (Item, bool) { return f() }

// Merge combines multiple arrival-ordered sources into one source ordered
// by arrival time (heartbeats use their watermark as arrival position).
// It is the fan-in used by multi-stream queries such as joins.
type Merge struct {
	sources []Source
	heads   []Item
	valid   []bool
}

// NewMerge returns a merging source over the given inputs.
func NewMerge(sources ...Source) *Merge {
	m := &Merge{sources: sources, heads: make([]Item, len(sources)), valid: make([]bool, len(sources))}
	for i := range sources {
		m.heads[i], m.valid[i] = sources[i].Next()
	}
	return m
}

func itemArrival(it Item) Time {
	if it.Heartbeat {
		return it.Watermark
	}
	return it.Tuple.Arrival
}

// Next implements Source.
func (m *Merge) Next() (Item, bool) {
	best := -1
	for i, ok := range m.valid {
		if !ok {
			continue
		}
		if best == -1 || itemArrival(m.heads[i]) < itemArrival(m.heads[best]) {
			best = i
		}
	}
	if best == -1 {
		return Item{}, false
	}
	it := m.heads[best]
	m.heads[best], m.valid[best] = m.sources[best].Next()
	return it, true
}

// SortByArrival sorts tuples in place by (arrival, seq); it converts an
// event-ordered trace into the order an operator would observe it.
func SortByArrival(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Arrival != ts[j].Arrival {
			return ts[i].Arrival < ts[j].Arrival
		}
		return ts[i].Seq < ts[j].Seq
	})
}

// SortByEventTime sorts tuples in place by (event time, seq) — the oracle
// order.
func SortByEventTime(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].TS != ts[j].TS {
			return ts[i].TS < ts[j].TS
		}
		return ts[i].Seq < ts[j].Seq
	})
}

// WithHeartbeats wraps a source so that a heartbeat carrying the maximum
// event timestamp seen so far is injected whenever arrival time advances by
// at least interval since the previous emission. Sources with long lulls
// need this so downstream buffers keep draining.
type WithHeartbeats struct {
	src      Source
	interval Time
	lastHB   Time
	maxTS    Time
	started  bool
	pending  *Item
}

// NewWithHeartbeats wraps src, injecting heartbeats every interval of
// arrival time. It panics if interval <= 0.
func NewWithHeartbeats(src Source, interval Time) *WithHeartbeats {
	if interval <= 0 {
		panic("stream: heartbeat interval must be positive")
	}
	return &WithHeartbeats{src: src, interval: interval}
}

// Next implements Source.
func (w *WithHeartbeats) Next() (Item, bool) {
	if w.pending != nil {
		it := *w.pending
		w.pending = nil
		w.noteDelivered(it)
		return it, true
	}
	it, ok := w.src.Next()
	if !ok {
		return Item{}, false
	}
	arr := itemArrival(it)
	if !w.started {
		w.started = true
		w.lastHB = arr
		w.noteDelivered(it)
		return it, true
	}
	if arr-w.lastHB >= w.interval {
		// Emit a heartbeat carrying the clock as of the items already
		// delivered; the triggering item follows on the next call.
		w.lastHB = arr
		w.pending = &it
		return HeartbeatItem(w.maxTS), true
	}
	w.noteDelivered(it)
	return it, true
}

func (w *WithHeartbeats) noteDelivered(it Item) {
	if !it.Heartbeat && it.Tuple.TS > w.maxTS {
		w.maxTS = it.Tuple.TS
	}
}
