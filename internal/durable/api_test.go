package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/stream"
)

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
// one item at a time, CommitEvery 16, into 2 000-byte segments writes in
// version 1 segments. testdata/v1-journal is that journal, as the version 1
// writer left it.
const perItemJournal = "020234fc8693c8151c7ace164343a24ecff6c30cc59a59bccf77002763876721"

// copyV1Journal copies testdata/v1-journal into a fresh directory.
func copyV1Journal(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", "v1-journal")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// A version 1 journal recovers under the version 2 reader; appends continued
// into it land in a version 2 segment behind the sealed version 1 ones, which
// keep their bytes, and a later recovery returns both parts.
func TestV1JournalRecovers(t *testing.T) {
	items := testItems(300)
	dir := copyV1Journal(t)
	if d, n := journalDigest(t, dir); d != perItemJournal || n != 7 {
		t.Fatalf("fixture: %d segments, digest %s, want 7 and %s", n, d, perItemJournal)
	}

	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 2000, CommitEvery: 16})
	rec := l.Recovery()
	if !reflect.DeepEqual(rec.Suffix, items) || rec.Records != 300 || rec.Items != 300 {
		t.Fatalf("v1 recovery: %d items, records/items %d/%d; want the 300 written", len(rec.Suffix), rec.Records, rec.Items)
	}
	if rec.HaveEmit || rec.EmitProgress != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("v1 recovery: emit (%d,%v), truncated %d; want none", rec.EmitProgress, rec.HaveEmit, rec.TruncatedBytes)
	}
	more := testItems(90)
	for lo := 0; lo < len(more); lo += 30 {
		if err := l.AppendItems(more[lo : lo+30]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendEmitProgress(5); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 8 || segs[7].first != 300 {
		t.Fatalf("segments after appending: %+v, want the 7 v1 ones and one at 300", segs)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		if seg.first == 300 {
			if string(data[:8]) != segMagic {
				t.Fatalf("appended segment has magic %q, want %q", data[:8], segMagic)
			}
			continue
		}
		orig, err := os.ReadFile(filepath.Join("testdata", "v1-journal", filepath.Base(seg.path)))
		if err != nil || !bytes.Equal(data, orig) {
			t.Fatalf("v1 segment %s changed (%v)", filepath.Base(seg.path), err)
		}
	}

	l = mustOpen(t, Options{Dir: dir})
	rec = l.Recovery()
	if want := append(append([]stream.Item{}, items...), more...); !reflect.DeepEqual(rec.Suffix, want) {
		t.Fatalf("mixed recovery: %d items, want %d", len(rec.Suffix), len(want))
	}
	if rec.Records != 304 || !rec.HaveEmit || rec.EmitProgress != 5 {
		t.Fatalf("mixed recovery: records %d, emit (%d,%v); want 304, (5,true)", rec.Records, rec.EmitProgress, rec.HaveEmit)
	}

	// A snapshot past them compacts the version 1 segments away.
	records, n, err := l.CutForSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(&Snapshot{Records: records, Items: n}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if segs, err := listSegments(dir); err != nil || len(segs) != 1 || segs[0].first != 300 {
		t.Fatalf("after the snapshot: segments %+v (%v), want only the version 2 one", segs, err)
	}
}

// A damaged version 1 tail is repaired like any other, and the version 2
// segment starts at the repaired end: behind a torn record, or in place of a
// header-only version 1 segment, which is removed.
func TestV1TailContinuesInV2(t *testing.T) {
	items := testItems(300)
	for _, tc := range []struct {
		name   string
		damage func(dir, last string) error
		keep   int
	}{
		{"torn-record", func(_, last string) error {
			fi, err := os.Stat(last)
			if err != nil {
				return err
			}
			return os.Truncate(last, fi.Size()-3)
		}, 299},
		{"header-only-segment", func(dir, _ string) error {
			hdr := binary.LittleEndian.AppendUint64([]byte(segMagicV1), 300)
			return os.WriteFile(filepath.Join(dir, segmentName(300)), hdr, 0o644)
		}, 300},
	} {
		dir := copyV1Journal(t)
		segs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.damage(dir, segs[len(segs)-1].path); err != nil {
			t.Fatal(err)
		}
		l := mustOpen(t, Options{Dir: dir})
		if got := l.Recovery().Suffix; !reflect.DeepEqual(got, items[:tc.keep]) {
			t.Fatalf("%s: recovered %d items, want %d", tc.name, len(got), tc.keep)
		}
		if err := l.AppendItems(items[tc.keep:]); err != nil {
			t.Fatal(err)
		}
		l.Close()
		data, err := os.ReadFile(filepath.Join(dir, segmentName(uint64(tc.keep))))
		if err != nil || string(data[:8]) != segMagic {
			t.Fatalf("%s: no version 2 segment at the repaired end (%v)", tc.name, err)
		}
		l = mustOpen(t, Options{Dir: dir})
		got := l.Recovery().Suffix
		l.Close()
		if !reflect.DeepEqual(got, items) {
			t.Fatalf("%s: after repair and append: %d items, want 300", tc.name, len(got))
		}
	}
}

// Batch records are never split by a rotation, so how the items are cut into
// appends decides which segment each lands in, not what recovers: whatever
// the cut, the same items come back, from a full scan and from behind a
// snapshot cut at an append boundary.
func TestBatchesAcrossSegmentsRecoverWhateverTheCut(t *testing.T) {
	items := testItems(300)
	for _, chunk := range []int{1, 7, 77, 200, 300} {
		dir := t.TempDir()
		l := mustOpen(t, Options{Dir: dir, SegmentBytes: 1000, CommitEvery: 16})
		var snap *Snapshot
		for lo := 0; lo < len(items); lo += chunk {
			if err := l.AppendItems(items[lo:min(lo+chunk, len(items))]); err != nil {
				t.Fatal(err)
			}
			if snap == nil && lo+chunk >= len(items)/2 && lo+chunk < len(items) {
				records, n, err := l.CutForSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				snap = &Snapshot{Records: records, Items: n}
			}
		}
		records := l.w.records
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if want := uint64((len(items) + chunk - 1) / chunk); records != want {
			t.Errorf("chunks of %d: %d records, want one per append (%d)", chunk, records, want)
		}
		segs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if chunk < len(items) && len(segs) < 2 {
			t.Errorf("chunks of %d: %d segments, want the items spread over several", chunk, len(segs))
		}
		scan, err := scanJournal(dir, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scan.items, items) {
			t.Errorf("chunks of %d: scan recovered %d items, want %d", chunk, len(scan.items), len(items))
		}
		if snap == nil {
			continue
		}
		// Written after the journal, so that nothing was compacted away
		// before the full scan above.
		if _, err := writeSnapshotFile(dir, snap); err != nil {
			t.Fatal(err)
		}
		l = mustOpen(t, Options{Dir: dir})
		rec := l.Recovery()
		l.Close()
		if cut := int(snap.Items); !reflect.DeepEqual(rec.Suffix, items[cut:]) || rec.Items != uint64(len(items)) {
			t.Errorf("chunks of %d: suffix behind the snapshot at item %d has %d items, want %d",
				chunk, cut, len(rec.Suffix), len(items)-cut)
		}
	}
}

// An append that does not fit behind the buffered bytes flushes them first,
// so a record reaches the OS in one write: a crash keeps the earlier batch
// and loses the later one whole, never a torn half of it.
func TestBatchRecordReachesTheOSWhole(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, CommitEvery: 1 << 20})
	items := testItems(6000)
	if err := l.AppendItems(items[:2000]); err != nil { // ~26 KB, buffered
		t.Fatal(err)
	}
	if err := l.AppendItems(items[2000:]); err != nil { // ~52 KB: does not fit behind it
		t.Fatal(err)
	}
	l.Abandon()
	l = mustOpen(t, Options{Dir: dir})
	rec := l.Recovery()
	l.Close()
	if !reflect.DeepEqual(rec.Suffix, items[:2000]) || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered %d items, %d torn bytes; want the first batch whole and nothing torn",
			len(rec.Suffix), rec.TruncatedBytes)
	}
}

// A batch longer than one record holds is split across records, each within
// maxRecordSize even when every item takes maxItemBytes.
func TestLongBatchSplitsAcrossRecords(t *testing.T) {
	items := make([]stream.Item, maxBatchItems+100)
	for i := range items {
		var ts int64 // alternating 0 and MinInt64: every delta is a 10-byte varint
		if i%2 == 1 {
			ts = math.MinInt64
		}
		items[i] = stream.DataItem(stream.Tuple{TS: ts, Arrival: ts, Seq: uint64(ts),
			Key: math.MaxUint64, Src: math.MaxUint8, Value: float64(i)})
	}
	if n := len(appendBatchPayload(nil, items[:maxBatchItems])); n > maxRecordSize {
		t.Fatalf("a full batch record is %d bytes, over maxRecordSize", n)
	}
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	if err := l.AppendItems(items); err != nil {
		t.Fatal(err)
	}
	if l.w.records != 2 || l.w.items != uint64(len(items)) {
		t.Fatalf("records/items %d/%d, want 2/%d", l.w.records, l.w.items, len(items))
	}
	l.Close()
	l = mustOpen(t, Options{Dir: dir})
	got := l.Recovery().Suffix
	l.Close()
	if !reflect.DeepEqual(got, items) {
		t.Fatalf("recovered %d items, want %d", len(got), len(items))
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

// A snapshot cut makes buffered writes durable even past an Abandon — the
// property the executors rely on when they fsync at a snapshot cut.
func TestSyncSurvivesAbandon(t *testing.T) {
	dir := t.TempDir()
	items := testItems(50)
	l := mustOpen(t, Options{Dir: dir, CommitEvery: 1 << 20}) // never auto-commit
	appendAll(t, l, items)
	if _, _, err := l.CutForSnapshot(); err != nil {
		t.Fatalf("CutForSnapshot: %v", err)
	}
	l.Abandon()

	l = mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if got := len(l.Recovery().Suffix); got != len(items) {
		t.Fatalf("recovered %d items after a cut and Abandon, want %d", got, len(items))
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
