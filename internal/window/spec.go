// Package window implements time-based sliding-window semantics and
// incremental aggregate functions for continuous queries.
//
// Windows are aligned to slide boundaries: window i covers the event-time
// interval [i·Slide, i·Slide + Size). A tuple with event timestamp ts
// belongs to every window whose interval contains ts — Size/Slide windows
// for the usual case where Slide divides Size.
//
// The operator (Op, and its per-key form KeyedOp) evaluates one aggregate
// Factory over that window lattice under a late-tuple policy. It has one
// open-window evaluation path: each tuple is stored once in a finger B-tree
// aggregator (internal/fiba) ordered by (TS, Seq), and a window is
// materialized at emission — by a range query over cached monoid partials
// for count/sum/min/max, by an exact selection across per-pane sorted runs
// for median and pNN (orderstat.go), by an ordered scan of the window's leaf
// range for everything else (fibacore.go; docs/ALGORITHMS.md derives the
// arithmetic).
// Oracle is the independent reference the quality metrics compare against:
// a plain fold over sorted input that shares no code with the tree.
package window

import (
	"fmt"

	"repro/internal/stream"
)

// Spec describes a sliding window: Size is the window length and Slide the
// distance between consecutive window starts. Slide == Size gives tumbling
// windows.
type Spec struct {
	Size  stream.Time
	Slide stream.Time
}

// Validate reports whether the specification is usable.
func (s Spec) Validate() error {
	if s.Size <= 0 {
		return fmt.Errorf("window: size must be positive, got %d", s.Size)
	}
	if s.Slide <= 0 {
		return fmt.Errorf("window: slide must be positive, got %d", s.Slide)
	}
	if s.Slide > s.Size {
		return fmt.Errorf("window: slide %d exceeds size %d (tuples would be skipped)", s.Slide, s.Size)
	}
	return nil
}

// String renders the spec.
func (s Spec) String() string { return fmt.Sprintf("win[size=%d slide=%d]", s.Size, s.Slide) }

// Bounds returns the half-open event-time interval [start, end) of window
// idx.
func (s Spec) Bounds(idx int64) (start, end stream.Time) {
	start = stream.Time(idx) * s.Slide
	return start, start + s.Size
}

// floorDiv returns floor(a/b) for b > 0, correct for negative a (Go's
// integer division truncates toward zero).
func floorDiv(a, b stream.Time) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return int64(q)
}

// WindowsFor returns the inclusive range [first, last] of window indices
// whose intervals contain ts. last - first + 1 == ceil(Size/Slide) for
// interior timestamps.
func (s Spec) WindowsFor(ts stream.Time) (first, last int64) {
	last = floorDiv(ts, s.Slide)
	first = floorDiv(ts-s.Size, s.Slide) + 1
	return first, last
}

// LastClosed returns the largest window index whose end is <= clock: every
// window up to (and including) the returned index is complete once the
// event-time clock has reached clock. For clocks before the end of window
// 0 the result is negative.
func (s Spec) LastClosed(clock stream.Time) int64 {
	// end(i) = i*Slide + Size <= clock  <=>  i <= (clock-Size)/Slide.
	return floorDiv(clock-s.Size, s.Slide)
}
