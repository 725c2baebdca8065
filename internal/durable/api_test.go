package durable

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// AppendItems is the transport-batch fast path; it must be byte-for-byte
// equivalent to the per-item loop, group-commit cadence included.
func TestAppendItemsMatchesPerItem(t *testing.T) {
	items := testItems(300)
	dirA, dirB := t.TempDir(), t.TempDir()

	a := mustOpen(t, Options{Dir: dirA, CommitEvery: 16, SnapshotEvery: 100})
	appendAll(t, a, items)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := mustOpen(t, Options{Dir: dirB, CommitEvery: 16, SnapshotEvery: 100})
	for lo := 0; lo < len(items); lo += 77 { // uneven chunks straddle the cadence
		hi := min(lo+77, len(items))
		if err := b.AppendItems(items[lo:hi]); err != nil {
			t.Fatalf("AppendItems: %v", err)
		}
	}
	if got, want := b.Records(), a.Records(); got != want {
		t.Fatalf("records %d vs per-item %d", got, want)
	}
	if got, want := b.Items(), a.Items(); got != want {
		t.Fatalf("items %d vs per-item %d", got, want)
	}
	if !b.ShouldSnapshot() {
		t.Fatal("batch path missed the snapshot cadence")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	segA, err := os.ReadFile(dirA + "/seg-0000000000000000.wal")
	if err != nil {
		t.Fatal(err)
	}
	segB, err := os.ReadFile(dirB + "/seg-0000000000000000.wal")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(segA, segB) {
		t.Fatal("batch append produced different journal bytes than per-item append")
	}
}

func TestTakeRecoveryClearsPending(t *testing.T) {
	dir := t.TempDir()
	items := testItems(20)
	l := mustOpen(t, Options{Dir: dir})
	appendAll(t, l, items)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = mustOpen(t, Options{Dir: dir})
	defer l.Close()
	rec := l.TakeRecovery()
	if rec == nil || !rec.Recovered || len(rec.Suffix) != len(items) {
		t.Fatalf("TakeRecovery = %+v, want %d-item suffix", rec, len(items))
	}
	if l.TakeRecovery() != nil || l.Recovery() != nil {
		t.Fatal("recovery not cleared after TakeRecovery")
	}
}

// Sync makes buffered writes durable even past an Abandon — the property
// the executors rely on when they fsync at a snapshot cut.
func TestSyncSurvivesAbandon(t *testing.T) {
	dir := t.TempDir()
	items := testItems(50)
	l := mustOpen(t, Options{Dir: dir, CommitEvery: 1 << 20}) // never auto-commit
	appendAll(t, l, items)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	l.Abandon()

	l = mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if got := len(l.Recovery().Suffix); got != len(items) {
		t.Fatalf("recovered %d items after Sync+Abandon, want %d", got, len(items))
	}
}

func TestMetricsInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, obs.L("query", "q0"))
	dir := t.TempDir()
	items := testItems(400)

	// Tiny segments force rotations; the cadence forces commits.
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 2048, CommitEvery: 32, Metrics: m})
	appendAll(t, l, items)
	rc, ic, err := l.CutForSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(&Snapshot{Records: rc, Items: ic}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	want := []struct {
		name string
		c    *obs.Counter
	}{
		{"appends", m.Appends},
		{"commits", m.Commits},
		{"syncs", m.Syncs},
		{"rotations", m.Rotations},
		{"snapshots", m.Snapshots},
	}
	for _, w := range want {
		if w.c.Value() <= 0 {
			t.Errorf("%s counter = %v, want > 0", w.name, w.c.Value())
		}
	}
	if m.SnapshotBytes.Value() <= 0 || m.JournalBytes.Value() < 0 {
		t.Errorf("gauges: snapshot=%v journal=%v", m.SnapshotBytes.Value(), m.JournalBytes.Value())
	}

	// A second open over the same directory with a suffix records a
	// recovery; a torn tail records the truncated bytes.
	l2 := mustOpen(t, Options{Dir: dir, Metrics: m})
	appendAll(t, l2, items[:10])
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last.path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	l3 := mustOpen(t, Options{Dir: dir, Metrics: m})
	defer l3.Close()
	if m.Recoveries.Value() < 2 {
		t.Errorf("recoveries = %v, want >= 2", m.Recoveries.Value())
	}
	if m.ReplayedItems.Value() <= 0 {
		t.Errorf("replayed items = %v, want > 0", m.ReplayedItems.Value())
	}
	if m.TruncatedTail.Value() <= 0 {
		t.Errorf("truncated tail bytes = %v, want > 0", m.TruncatedTail.Value())
	}

	// The nil receiver is the uninstrumented fast path — must be silent.
	var nilM *Metrics
	nilM.noteAppend(0)
	nilM.noteCommit()
	nilM.noteSync()
	nilM.noteRotation()
	nilM.noteSnapshot(0)
	nilM.noteRecovery(0, 0)
}

func TestWriteFileAtomicRejectsMissingDir(t *testing.T) {
	if err := WriteFileAtomic(t.TempDir()+"/no/such/dir/f", []byte("x"), 0o644); err == nil {
		t.Fatal("write into a missing directory must fail")
	}
}
