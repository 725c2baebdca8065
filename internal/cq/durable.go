package cq

import "repro/internal/durable"

// Durable couples a query to a durability log (see internal/durable): the
// step core (Exec) journals every batch it applies, snapshots
// handler+operator state on the log's cadence, and — when the log was
// opened over a previous run's directory — recovers before processing:
// restore the snapshot, replay the journal suffix, and suppress re-emission
// of windows the previous process already delivered durably. The whole
// protocol lives in exec.go; this file holds its configuration.
type Durable struct {
	// Log is an opened durable.QueryLog. The Exec consumes its pending
	// recovery (QueryLog.TakeRecovery); the caller keeps ownership and
	// closes it after the run.
	Log *durable.QueryLog
	// Decorate, when set, is called on every snapshot before it is
	// written, letting the host add its own continuity (FeedBase, query
	// name, cumulative counters).
	Decorate func(*durable.Snapshot)
}

// Durable attaches crash-consistent durability to the query. Grouped
// queries are not supported (validate rejects the combination): the keyed
// operator has no snapshot form yet.
//
// Exactly-once semantics cover primary window emissions: after recovery no
// primary result is emitted twice or lost relative to what the journal made
// durable. RefineLate corrections are not tracked by the emission cursor
// and may be re-delivered after a crash (they are idempotent corrections).
func (q *AggQuery) Durable(d Durable) *AggQuery {
	q.durable = &d
	return q
}

// RecoveryInfo summarizes the crash recovery the Exec performed before
// processing, surfaced on AggReport.Recovery.
type RecoveryInfo struct {
	FromSnapshot      bool  // a snapshot was restored (vs journal-only replay)
	ReplayedItems     int   // journal items replayed through handler+operator
	SuppressedResults int   // duplicate emissions suppressed during replay
	EmitProgress      int64 // durable emission floor applied
	HaveEmit          bool
	TruncatedBytes    int64 // torn journal tail repaired away
	TruncatedRecords  int
}
