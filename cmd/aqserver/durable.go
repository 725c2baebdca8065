package main

import (
	"repro/internal/durable"
	"repro/internal/stream"
)

// Durability for non-grouped runners: with -durable-dir set, the runner's
// step core (cq.Exec) journals every batch before it touches operator
// state, cuts snapshots on the configured cadence and, in a restarted
// server, recovers the query before its feed starts — the whole protocol
// is the engine's. What lives here is the host's own continuity across a
// restart: the cumulative counters the status JSON reports, the feed
// loop's synthetic event-time rebase, and the recovery summary /readyz
// shows.

// recoveryStatus summarizes a runner's crash recovery for /readyz and the
// status JSON.
type recoveryStatus struct {
	FromSnapshot      bool   `json:"fromSnapshot"`
	ReplayedItems     int    `json:"replayedItems"`
	SuppressedResults int    `json:"suppressedResults"`
	DurableItems      uint64 `json:"durableItems"`
	TruncatedBytes    int64  `json:"truncatedBytes,omitempty"`
}

// resumeCounters peeks at what the log recovered (the core consumes it
// next) and restores the host-side state a snapshot carried: cumulative
// counters and the feed rebase. Returns nil when there is nothing to
// recover.
func (q *queryRunner) resumeCounters() *durable.Recovery {
	rec := q.dlog.Recovery()
	if rec == nil || !rec.Recovered {
		return nil
	}
	if snap := rec.Snapshot; snap != nil {
		q.emitted = snap.Counters["emitted"]
		q.feedBase.Store(int64(snap.FeedBase))
	}
	return rec
}

// decorateSnapshot is the cq.Durable.Decorate callback: it adds the
// host's continuity to a snapshot the core is about to write. The core
// snapshots inside a step, so q.mu is held.
func (q *queryRunner) decorateSnapshot(s *durable.Snapshot) {
	s.Query = q.name
	s.FeedBase = stream.Time(q.feedBase.Load())
	s.Counters = map[string]int64{"emitted": q.emitted}
}

// noteRecovery records what the core's recovery did, once it has run.
func (q *queryRunner) noteRecovery(prior *durable.Recovery) {
	info := q.stage.Report().Recovery
	if prior == nil || info == nil {
		return
	}
	// Resume the synthetic event-time rebase past everything the dead
	// process saw — the snapshot's own rebase, and the replayed horizon (a
	// runner that died before its first snapshot cut recovers by journal
	// replay alone) — so the restarted feed never rewinds event time.
	if base := q.exec.Now() + stream.Second; base > stream.Time(q.feedBase.Load()) {
		q.feedBase.Store(int64(base))
	}
	q.recovery = &recoveryStatus{
		FromSnapshot:      info.FromSnapshot,
		ReplayedItems:     info.ReplayedItems,
		SuppressedResults: info.SuppressedResults,
		DurableItems:      prior.Items,
		TruncatedBytes:    info.TruncatedBytes,
	}
	q.log.Info("recovered from durable state",
		"fromSnapshot", info.FromSnapshot, "replayed", info.ReplayedItems,
		"suppressed", info.SuppressedResults, "durableItems", prior.Items,
		"truncatedBytes", info.TruncatedBytes)
}

// resumeBase returns the feed loop's starting rebase offset: zero for a
// fresh query, past the dead process's event-time horizon after recovery.
func (q *queryRunner) resumeBase() stream.Time { return stream.Time(q.feedBase.Load()) }

// noteRebase records the feed loop's segment rebase so snapshots carry it.
func (q *queryRunner) noteRebase(base stream.Time) { q.feedBase.Store(int64(base)) }
