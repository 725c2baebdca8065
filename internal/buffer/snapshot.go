package buffer

import (
	"repro/internal/stats"
	"repro/internal/stream"
)

// This file exports and restores handler state for crash-consistent
// snapshots (internal/durable). Restoring a state into a freshly
// constructed handler of the same kind and feeding it the same item suffix
// yields bit-identical releases to the uninterrupted run.

// SlackState is the exported state of the shared K-slack mechanism. Heap
// holds the buffered tuples; export writes them ascending by (TS, Seq)
// and restore accepts any order and re-sorts, so release order is exactly
// preserved. Both directions are compatible with states written when a
// binary min-heap backed the buffer: a heap's pop order is the same
// sorted order, and a sorted array is itself a valid heap array.
type SlackState struct {
	Heap        []stream.Tuple `json:"heap,omitempty"`
	Clock       stream.Time    `json:"clock"`
	Started     bool           `json:"started"`
	K           stream.Time    `json:"k"`
	MaxReleased stream.Time    `json:"maxReleased"`
	HasReleased bool           `json:"hasReleased"`
	Stats       Stats          `json:"stats"`
}

func (b *slackBuffer) slackState() SlackState {
	return SlackState{
		Heap:        b.heap.sorted(),
		Clock:       b.clock,
		Started:     b.started,
		K:           b.k,
		MaxReleased: b.maxReleased,
		HasReleased: b.hasReleased,
		Stats:       b.stats,
	}
}

func (b *slackBuffer) restoreSlack(st SlackState) {
	b.heap.restore(st.Heap)
	b.clock = st.Clock
	b.started = st.Started
	b.k = st.K
	b.maxReleased = st.MaxReleased
	b.hasReleased = st.HasReleased
	b.stats = st.Stats
}

// State exports the buffer state.
func (b *KSlack) State() SlackState { return b.slackState() }

// Restore sets the buffer to a previously exported state.
func (b *KSlack) Restore(st SlackState) { b.restoreSlack(st) }

// State exports the buffer state (K carries the max lateness seen so far).
func (b *MaxSlack) State() SlackState { return b.slackState() }

// Restore sets the buffer to a previously exported state.
func (b *MaxSlack) Restore(st SlackState) { b.restoreSlack(st) }

// PercentileState is the exported state of a Percentile buffer. The target
// percentile and update cadence are construction-time configuration. A state
// written while the buffer kept a Greenwald–Khanna sketch carries it
// ("sketch"): it restores into the histogram (stats.LogHist.AddGK).
type PercentileState struct {
	Slack       SlackState         `json:"slack"`
	Hist        stats.LogHistState `json:"latenessHist"`
	Sketch      *stats.GKState     `json:"sketch,omitempty"`
	SinceUpdate int64              `json:"sinceUpdate"`
}

// State exports the buffer state.
func (b *Percentile) State() PercentileState {
	return PercentileState{
		Slack:       b.slackState(),
		Hist:        b.lateness.State(),
		SinceUpdate: b.sinceUpdate,
	}
}

// Restore sets the buffer to a previously exported state.
func (b *Percentile) Restore(st PercentileState) {
	b.restoreSlack(st.Slack)
	b.lateness.Restore(st.Hist)
	if st.Sketch != nil {
		b.lateness.AddGK(*st.Sketch)
	}
	b.sinceUpdate = st.SinceUpdate
}

// PunctuatedState is the exported state of a Punctuated buffer: the slack
// mechanism (K stays 0) and the last watermark trusted.
type PunctuatedState struct {
	Slack  SlackState  `json:"slack"`
	LastWM stream.Time `json:"lastWM"`
	HasWM  bool        `json:"hasWM"`
}

// State exports the buffer state.
func (b *Punctuated) State() PunctuatedState {
	return PunctuatedState{Slack: b.slackState(), LastWM: b.lastWM, HasWM: b.hasWM}
}

// Restore sets the buffer to a previously exported state.
func (b *Punctuated) Restore(st PunctuatedState) {
	b.restoreSlack(st.Slack)
	b.lastWM, b.hasWM = st.LastWM, st.HasWM
}
