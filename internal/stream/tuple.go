// Package stream defines the data-stream substrate: tuples with event and
// arrival timestamps, stream items (tuples or heartbeat punctuation),
// pull-based sources, and disorder measurement.
//
// Time convention: all timestamps are int64 values in stream-time units
// (milliseconds by convention; constants Millisecond/Second/Minute make
// call sites readable). Event time is assigned by the source; arrival time
// is event time plus transport delay. Operators see tuples in arrival
// order, which is where out-of-orderness comes from.
package stream

import "fmt"

// Time is a stream timestamp in stream-time units (milliseconds by
// convention).
type Time = int64

// Convenient duration constants in stream-time units.
const (
	Millisecond Time = 1
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Tuple is one stream element. Tuples are small value types passed by
// value throughout the pipeline; operators never mutate a tuple they did
// not create.
type Tuple struct {
	TS      Time    // event timestamp, assigned at the source
	Arrival Time    // arrival timestamp at the processor (TS + delay)
	Seq     uint64  // per-stream sequence number, unique and dense from 0
	Key     uint64  // partition / join key (0 when unkeyed)
	Src     uint8   // source stream index, for multi-stream operators
	Value   float64 // payload measure
}

// Delay returns the transport delay the tuple experienced. Its receiver is a
// pointer so that the disorder intake's per-tuple call copies no tuple.
func (t *Tuple) Delay() Time { return t.Arrival - t.TS }

// String renders the tuple for logs and test failures.
func (t Tuple) String() string {
	return fmt.Sprintf("tuple{ts=%d arr=%d seq=%d key=%d val=%g}", t.TS, t.Arrival, t.Seq, t.Key, t.Value)
}

// Item is a stream element as delivered to operators: either a data tuple
// or a heartbeat punctuation. A heartbeat carries the stream's current
// event-time clock (the maximum event timestamp observed so far); sources
// emit them during lulls so that disorder-handling buffers and windows keep
// making progress. Heartbeats are progress signals, not completeness
// guarantees: with disorder, tuples with smaller event times may still
// arrive, and each disorder handler applies its own slack on top.
type Item struct {
	Tuple     Tuple
	Heartbeat bool
	Watermark Time // valid only when Heartbeat
}

// DataItem wraps a tuple as a stream item.
func DataItem(t Tuple) Item { return Item{Tuple: t} }

// HeartbeatItem builds a heartbeat punctuation for the given watermark.
func HeartbeatItem(w Time) Item { return Item{Heartbeat: true, Watermark: w} }

// String renders the item.
func (it Item) String() string {
	if it.Heartbeat {
		return fmt.Sprintf("heartbeat{wm=%d}", it.Watermark)
	}
	return it.Tuple.String()
}
