package durable

import (
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/stream"
)

// Options parameterizes a QueryLog. Dir is required; zero values elsewhere
// select documented defaults.
type Options struct {
	Dir string
	// SegmentBytes caps a journal segment; rotation fsyncs the sealed
	// segment. Default 4 MiB: large enough that rotation fsyncs are rare
	// on the hot path, small enough that compaction reclaims space
	// promptly after a snapshot.
	SegmentBytes int64
	// CommitEvery is the group-commit batch: after this many appended
	// items the buffered journal writes are flushed to the OS (surviving a
	// process crash). 1 commits every item; default 256 — at streaming
	// rates that bounds process-crash loss to well under a millisecond of
	// data while keeping flush syscalls off the per-batch hot path.
	// Explicit Commit calls (e.g. per transport batch) work regardless.
	CommitEvery int
	// SnapshotEvery makes ShouldSnapshot report true every N accepted
	// items. 0 disables the automatic cadence (hosts may still snapshot
	// explicitly).
	SnapshotEvery int64
	// FsyncOnCommit upgrades every group commit to an fsync (surviving a
	// machine crash). Off by default: the paper's quality contract already
	// tolerates bounded loss, and rotation/snapshot fsyncs bound the
	// exposure.
	FsyncOnCommit bool
	Metrics       *Metrics
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CommitEvery == 0 {
		o.CommitEvery = 256
	}
	return o
}

// Recovery is what Open found on disk: the snapshot to restore (nil for a
// journal-only or fresh start), the journal suffix to replay, and the
// durable emission progress used to suppress duplicate results.
type Recovery struct {
	Recovered bool          // any prior state existed
	Snapshot  *Snapshot     // newest valid snapshot, nil if none
	Suffix    []stream.Item // journal items past the snapshot, in accept order

	// EmitProgress is the largest durable next-emission index: windows
	// below it were already delivered to the host before the crash.
	EmitProgress int64
	HaveEmit     bool

	Records uint64 // journal records at open
	Items   uint64 // journal items at open

	TruncatedBytes   int64 // torn-tail bytes repaired away
	TruncatedRecords int   // torn-tail frames (or debris segments) removed
}

// QueryLog is one query's durability state: journal writer plus snapshot
// management. Methods are safe for concurrent use — the pipeline journals
// items from the source stage while the window stage records emission
// progress and snapshots.
type QueryLog struct {
	mu   sync.Mutex
	opts Options
	w    *journalWriter
	rec  *Recovery

	sinceCommit  int
	sinceSnap    int64
	lastEmit     int64
	haveLastEmit bool

	// snapDue mirrors sinceSnap >= SnapshotEvery so the executor's hot
	// path can poll the snapshot cadence without taking the lock.
	snapDue atomic.Bool
}

// Open attaches to (or initializes) the durability directory, performing
// recovery: load the newest valid snapshot, repair the journal tail, and
// collect the replay suffix. The returned log is positioned for appending.
func Open(opts Options) (*QueryLog, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	snap, err := loadLatestSnapshot(opts.Dir)
	if err != nil {
		return nil, err
	}
	var skip, itemBase uint64
	if snap != nil {
		skip, itemBase = snap.Records, snap.Items
	}
	scan, err := scanJournal(opts.Dir, skip, true)
	if err != nil {
		return nil, err
	}
	lastSeg := scan.lastSeg
	if scan.tail < scan.records {
		// The snapshot is ahead of every physical journal record (possible
		// only through external tampering, since the cut syncs first):
		// start a fresh segment at the snapshot's offset rather than
		// appending records whose implied indices would not line up.
		lastSeg = nil
	}
	rec := &Recovery{
		Snapshot:         snap,
		Suffix:           scan.items,
		Records:          scan.records,
		Items:            itemBase + uint64(len(scan.items)),
		TruncatedBytes:   scan.truncBytes,
		TruncatedRecords: scan.truncRecords,
	}
	if snap != nil && snap.HaveEmit {
		rec.EmitProgress, rec.HaveEmit = snap.EmitProgress, true
	}
	if scan.haveEmit && (!rec.HaveEmit || scan.emitProgress > rec.EmitProgress) {
		rec.EmitProgress, rec.HaveEmit = scan.emitProgress, true
	}
	rec.Recovered = snap != nil || len(scan.items) > 0 || rec.HaveEmit
	if rec.Recovered {
		opts.Metrics.noteRecovery(len(scan.items), scan.truncBytes)
	}

	w, err := newJournalWriter(opts.Dir, opts.SegmentBytes, scan.records, rec.Items, lastSeg, opts.Metrics)
	if err != nil {
		return nil, err
	}
	l := &QueryLog{opts: opts, w: w, rec: rec}
	if rec.HaveEmit {
		l.lastEmit, l.haveLastEmit = rec.EmitProgress, true
	}
	return l, nil
}

// Recovery returns what Open found; the executor consumes it once before
// starting the pipeline.
func (l *QueryLog) Recovery() *Recovery { return l.rec }

// TakeRecovery returns the pending recovery and clears it, so a second
// execution on the same open log starts clean instead of replaying again.
func (l *QueryLog) TakeRecovery() *Recovery {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.rec
	l.rec = nil
	return r
}

// AppendItems journals a batch of accepted items (post-shedding) under one
// lock, as one batch record (or several, past maxBatchItems), so that a torn
// write loses the batch whole. The group-commit rule is applied once, at the
// batch's end: the buffered writes are flushed to the OS when CommitEvery or
// more appended items are unflushed, so fewer than CommitEvery are when the
// call returns. Unflushed writes become crash-durable at the next group
// commit, Commit, or snapshot cut.
func (l *QueryLog) AppendItems(items []stream.Item) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	records := l.w.records
	if err := l.w.appendItems(items); err != nil {
		return err
	}
	l.opts.Metrics.noteAppend(int(l.w.records-records), l.w.segSize)
	l.sinceSnap += int64(len(items))
	l.sinceCommit += len(items)
	if l.opts.SnapshotEvery > 0 && l.sinceSnap >= l.opts.SnapshotEvery {
		l.snapDue.Store(true)
	}
	if l.sinceCommit >= l.opts.CommitEvery {
		return l.commitLocked()
	}
	return nil
}

// AppendEmitProgress journals the operator's next primary emission index.
// Monotone duplicates are skipped, so calling it once per transport batch
// costs one small record only when progress actually advanced.
func (l *QueryLog) AppendEmitProgress(nextEmit int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.haveLastEmit && nextEmit <= l.lastEmit {
		return nil
	}
	if err := l.w.appendEmit(nextEmit); err != nil {
		return err
	}
	l.lastEmit, l.haveLastEmit = nextEmit, true
	l.opts.Metrics.noteAppend(1, l.w.segSize)
	return nil
}

// Commit flushes buffered journal writes to the OS (group commit): they
// now survive a process crash. The executors call it once per shipped
// transport batch, riding the batched pipeline's natural cadence.
func (l *QueryLog) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked()
}

func (l *QueryLog) commitLocked() error {
	l.sinceCommit = 0
	if l.opts.FsyncOnCommit {
		return l.w.sync()
	}
	if err := l.w.flush(); err != nil {
		return err
	}
	l.opts.Metrics.noteCommit()
	return nil
}

// ShouldSnapshot reports whether the automatic snapshot cadence is due.
// Lock-free: the executors poll it per accepted item.
func (l *QueryLog) ShouldSnapshot() bool {
	return l.snapDue.Load()
}

// CutForSnapshot marks a snapshot cut: the journal is synced (a snapshot
// must never reference records that could still vanish) and the covered
// record/item counts are returned for the Snapshot under construction.
func (l *QueryLog) CutForSnapshot() (records, items uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sinceSnap = 0
	l.sinceCommit = 0
	l.snapDue.Store(false)
	if err := l.w.sync(); err != nil {
		return 0, 0, err
	}
	return l.w.records, l.w.items, nil
}

// WriteSnapshot atomically persists s and compacts: journal segments
// entirely covered by the snapshot and all but the latest two snapshot
// files are deleted.
func (l *QueryLog) WriteSnapshot(s *Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := writeSnapshotFile(l.opts.Dir, s)
	if err != nil {
		return err
	}
	l.opts.Metrics.noteSnapshot(n)
	return l.compactLocked(s.Records)
}

// compactLocked deletes journal segments whose records all precede the
// snapshot cut, plus stale snapshot files (the latest two are kept: the
// newest is authoritative, one predecessor is belt and braces against
// external damage).
func (l *QueryLog) compactLocked(records uint64) error {
	segs, err := listSegments(l.opts.Dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		// A segment is covered iff the next segment starts at or below the
		// cut. Never touch the open segment.
		if segs[i+1].first <= records && segs[i].first < l.w.segStart {
			if err := os.Remove(segs[i].path); err != nil {
				return err
			}
		}
	}
	snaps, err := listSnapshots(l.opts.Dir)
	if err != nil {
		return err
	}
	for i := 0; i+2 < len(snaps); i++ {
		if err := os.Remove(l.opts.Dir + string(os.PathSeparator) + snaps[i]); err != nil {
			return err
		}
	}
	return nil
}

// Close syncs and closes the journal.
func (l *QueryLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.close()
}

// Abandon drops all uncommitted journal writes and releases the file
// without flushing — the DST harness's crash switch: the on-disk state is
// exactly what a SIGKILL at this instant would have left.
func (l *QueryLog) Abandon() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.abandon()
}
