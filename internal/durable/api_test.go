package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// AppendItems is the transport-batch fast path; it must be byte-for-byte
// equivalent to the per-item loop, snapshot cadence included.
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

// journalDigest hashes every segment file of dir, names included, in order.
func journalDigest(t *testing.T, dir string) (digest string, segments int) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(seg.path), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), len(segs)
}

// perItemJournal is the digest of the journal that appending testItems(300)
// one item at a time, CommitEvery 16, into 2 000-byte segments writes. It was
// recorded with QueryLog.AppendItem, the per-item append that batch appends
// replaced, so it pins the bytes on disk across that change: a journal
// directory written by either version is the other's.
const perItemJournal = "020234fc8693c8151c7ace164343a24ecff6c30cc59a59bccf77002763876721"

// The rotation rule is applied per frame inside a batch, so batches that
// span segments — cut at 1, 7, 77 or 300 items — write the segment files,
// and report the Appends and JournalBytes metrics, of one-at-a-time appends.
func TestAppendItemsAcrossSegmentsMatchesPerItem(t *testing.T) {
	items := testItems(300)
	write := func(chunk int) (digest string, segments int, m *Metrics) {
		dir := t.TempDir()
		m = NewMetrics(obs.NewRegistry())
		l := mustOpen(t, Options{Dir: dir, SegmentBytes: 2000, CommitEvery: 16, Metrics: m})
		for lo := 0; lo < len(items); lo += chunk {
			if err := l.AppendItems(items[lo:min(lo+chunk, len(items))]); err != nil {
				t.Fatalf("AppendItems: %v", err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		digest, segments = journalDigest(t, dir)
		return digest, segments, m
	}
	want, segments, wantM := write(1)
	if segments < 5 {
		t.Fatalf("the items span %d segments, want at least 5", segments)
	}
	if want != perItemJournal {
		t.Fatalf("one-at-a-time journal digest %s, recorded per-item journal %s", want, perItemJournal)
	}
	for _, chunk := range []int{7, 77, 300} {
		got, _, m := write(chunk)
		if got != want {
			t.Errorf("chunks of %d: journal digest %s, one at a time %s", chunk, got, want)
		}
		if m.Appends.Value() != wantM.Appends.Value() || m.JournalBytes.Value() != wantM.JournalBytes.Value() {
			t.Errorf("chunks of %d: appends %v, journal bytes %v; one at a time %v, %v", chunk,
				m.Appends.Value(), m.JournalBytes.Value(), wantM.Appends.Value(), wantM.JournalBytes.Value())
		}
	}
}

// AppendItems applies the group-commit rule once, at the batch's end: a crash
// (Abandon) right after a batch of at least CommitEvery items keeps all of
// it, and a batch below the cadence carries its count to the next one.
func TestAppendItemsGroupCommitsAtBatchEnd(t *testing.T) {
	items := testItems(200)
	for _, tc := range []struct {
		batches []int
		durable int
	}{
		{[]int{100}, 100},
		{[]int{64}, 64},
		{[]int{40}, 0},
		{[]int{40, 30}, 70},
		{[]int{40, 30, 20}, 70},
	} {
		dir := t.TempDir()
		l := mustOpen(t, Options{Dir: dir, CommitEvery: 64})
		n := 0
		for _, b := range tc.batches {
			if err := l.AppendItems(items[n : n+b]); err != nil {
				t.Fatal(err)
			}
			n += b
		}
		l.Abandon()
		l = mustOpen(t, Options{Dir: dir})
		got := l.Recovery().Suffix
		l.Close()
		if len(got) != tc.durable || len(got) > 0 && !reflect.DeepEqual(got, items[:len(got)]) {
			t.Errorf("batches %v then a crash: recovered %d items, want the first %d", tc.batches, len(got), tc.durable)
		}
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
	nilM.noteAppend(0, 0)
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
