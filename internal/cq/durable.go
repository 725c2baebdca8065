package cq

import "repro/internal/durable"

// Durable couples a query to an opened durability log (see internal/durable):
// the step core (Exec) journals every batch it applies, snapshots
// handler+operator state on the log's cadence, and — when the log was opened
// over a previous run's directory — recovers before processing: restore the
// snapshot, replay the journal suffix, and suppress re-emission of windows
// the previous process already delivered durably. The whole protocol lives in
// exec.go. The Exec consumes the log's pending recovery
// (QueryLog.TakeRecovery); the caller keeps ownership and closes it after the
// run. A nil log leaves the query without durability. Grouped queries are not
// supported (validate rejects the combination): the keyed operator has no
// snapshot form yet.
//
// Exactly-once semantics cover primary window emissions: after recovery no
// primary result is emitted twice or lost relative to what the journal made
// durable. RefineLate corrections are not tracked by the emission cursor
// and may be re-delivered after a crash (they are idempotent corrections).
//
// A recovered query's continuity is its own restored state: the operator's
// counts (AggReport.Op) and the arrival clock (Exec.Now) come back with the
// snapshot and are advanced by the replay.
func (q *AggQuery) Durable(log *durable.QueryLog) *AggQuery {
	q.durable = log
	return q
}

// RecoveryInfo summarizes the crash recovery the Exec performed before
// processing, surfaced on AggReport.Recovery (and as JSON by aqserver's
// /readyz and status).
type RecoveryInfo struct {
	FromSnapshot      bool   `json:"fromSnapshot"`      // a snapshot was restored (vs journal-only replay)
	ReplayedItems     int    `json:"replayedItems"`     // journal items replayed through handler+operator
	SuppressedResults int    `json:"suppressedResults"` // duplicate emissions suppressed during replay
	DurableItems      uint64 `json:"durableItems"`      // items the log held at open: snapshot prefix + journal suffix
	EmitProgress      int64  `json:"emitProgress"`      // durable emission floor applied
	HaveEmit          bool   `json:"haveEmit"`
	TruncatedBytes    int64  `json:"truncatedBytes,omitempty"` // torn journal tail repaired away
	TruncatedRecords  int    `json:"truncatedRecords,omitempty"`
}
