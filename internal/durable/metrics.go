package durable

import "repro/internal/obs"

// Metrics are the journal/snapshot/recovery instruments. All note* methods
// are nil-receiver safe, so an uninstrumented QueryLog costs a nil check
// per event.
type Metrics struct {
	Appends       *obs.Counter // journal records appended
	Commits       *obs.Counter // group commits (flushes to the OS)
	Syncs         *obs.Counter // fsyncs (rotation, snapshot cut, explicit)
	Rotations     *obs.Counter // segment rotations
	Snapshots     *obs.Counter // snapshots written
	SnapshotBytes *obs.Gauge   // size of the last snapshot
	Recoveries    *obs.Counter // recoveries performed at open
	ReplayedItems *obs.Counter // items replayed from the journal suffix
	TruncatedTail *obs.Counter // torn-tail bytes discarded during recovery
	JournalBytes  *obs.Gauge   // bytes in the open segment (approximate)
}

// NewMetrics registers the durability instruments on r. Labels (e.g. the
// query name) distinguish per-query logs sharing one registry.
func NewMetrics(r *obs.Registry, labels ...obs.Label) *Metrics {
	return &Metrics{
		Appends:       r.Counter("durable_journal_appends_total", "journal records appended", labels...),
		Commits:       r.Counter("durable_journal_commits_total", "journal group commits", labels...),
		Syncs:         r.Counter("durable_journal_syncs_total", "journal fsyncs", labels...),
		Rotations:     r.Counter("durable_journal_rotations_total", "journal segment rotations", labels...),
		Snapshots:     r.Counter("durable_snapshots_total", "snapshots written", labels...),
		SnapshotBytes: r.Gauge("durable_snapshot_bytes", "size of the last snapshot written", labels...),
		Recoveries:    r.Counter("durable_recoveries_total", "recoveries performed at open", labels...),
		ReplayedItems: r.Counter("durable_replayed_items_total", "items replayed from the journal suffix", labels...),
		TruncatedTail: r.Counter("durable_truncated_tail_bytes_total", "torn-tail bytes discarded during recovery", labels...),
		JournalBytes:  r.Gauge("durable_journal_open_segment_bytes", "bytes in the open journal segment", labels...),
	}
}

func (m *Metrics) noteAppend(records int, segSize int64) {
	if m == nil {
		return
	}
	m.Appends.Add(float64(records))
	m.JournalBytes.Set(float64(segSize))
}

func (m *Metrics) noteCommit() {
	if m == nil {
		return
	}
	m.Commits.Inc()
}

func (m *Metrics) noteSync() {
	if m == nil {
		return
	}
	m.Syncs.Inc()
}

func (m *Metrics) noteRotation() {
	if m == nil {
		return
	}
	m.Rotations.Inc()
}

func (m *Metrics) noteSnapshot(bytes int) {
	if m == nil {
		return
	}
	m.Snapshots.Inc()
	m.SnapshotBytes.Set(float64(bytes))
}

func (m *Metrics) noteRecovery(replayedItems int, truncatedBytes int64) {
	if m == nil {
		return
	}
	m.Recoveries.Inc()
	m.ReplayedItems.Add(float64(replayedItems))
	m.TruncatedTail.Add(float64(truncatedBytes))
}
