package cq

import (
	"repro/internal/durable"
	"repro/internal/stream"
)

// Durable couples a query to a durability log (see internal/durable): the
// step core (Exec) journals every batch it applies, snapshots
// handler+operator state on the log's cadence, and — when the log was
// opened over a previous run's directory — recovers before processing:
// restore the snapshot, replay the journal suffix, and suppress re-emission
// of windows the previous process already delivered durably. The whole
// protocol lives in exec.go; this file holds its configuration and the
// intake-side disorder accumulator a snapshot carries.
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

// disorderAcc is the drivers' inline disorder measurement (same
// definition as stream.MeasureDisorder, without retaining the input). It is
// part of snapshots so a recovered run's disorder report covers the whole
// logical stream, not just the post-crash part.
type disorderAcc struct {
	stats    stream.DisorderStats
	sumLate  float64
	sumDelay float64
	clock    stream.Time
	started  bool
}

// observe folds a batch's data tuples in, in order. The accumulator is held
// in locals across the batch: the intake runs over every tuple a driver
// steps.
func (d *disorderAcc) observe(items []stream.Item) {
	st, sumLate, sumDelay, clock, started := d.stats, d.sumLate, d.sumDelay, d.clock, d.started
	for i := range items {
		t := &items[i].Tuple
		if items[i].Heartbeat {
			continue
		}
		if !started || t.TS > clock {
			clock, started = t.TS, true
		}
		if l := clock - t.TS; l > 0 {
			st.OutOfOrder++
			sumLate += float64(l)
			st.MaxLateness = max(st.MaxLateness, l)
		}
		dl := t.Arrival - t.TS
		sumDelay += float64(dl)
		st.MaxDelay = max(st.MaxDelay, dl)
		st.N++
	}
	d.stats, d.sumLate, d.sumDelay, d.clock, d.started = st, sumLate, sumDelay, clock, started
}

// finish computes the derived means and returns the stats.
func (d *disorderAcc) finish() stream.DisorderStats {
	st := d.stats
	if st.N > 0 {
		st.MeanLateness = d.sumLate / float64(st.N)
		st.MeanDelay = d.sumDelay / float64(st.N)
	}
	return st
}

// cut exports the accumulator for a snapshot.
func (d *disorderAcc) cut() durable.DisorderCut {
	return durable.DisorderCut{Stats: d.stats, SumLate: d.sumLate, SumDelay: d.sumDelay, Clock: d.clock, Started: d.started}
}

func (d *disorderAcc) restore(c durable.DisorderCut) {
	d.stats, d.sumLate, d.sumDelay, d.clock, d.started = c.Stats, c.SumLate, c.SumDelay, c.Clock, c.Started
}
