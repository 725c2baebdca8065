package durable

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/stream"
)

// tupleFrame is the on-disk cost of a one-tuple batch record whose TS,
// Arrival and Seq are below 64 and whose Key and Src are 0: the 8-byte frame
// header, then kind, item count, tag, three one-byte deltas, a one-byte Key
// and the 8-byte value.
const tupleFrame = recHeaderSize + 7 + 8

func testItems(n int) []stream.Item {
	items := make([]stream.Item, 0, n)
	for i := 0; i < n; i++ {
		if i%7 == 6 {
			items = append(items, stream.HeartbeatItem(stream.Time(i*10)))
			continue
		}
		items = append(items, stream.DataItem(stream.Tuple{
			TS:      int64(i * 10),
			Arrival: int64(i*10 + i%5),
			Seq:     uint64(i),
			Key:     uint64(i % 3),
			Src:     byte(i % 4),
			Value:   float64(i) * 1.5,
		}))
	}
	return items
}

func mustOpen(t *testing.T, opts Options) *QueryLog {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendAll(t *testing.T, l *QueryLog, items []stream.Item) {
	t.Helper()
	for i := range items {
		if err := l.AppendItems(items[i : i+1]); err != nil {
			t.Fatalf("AppendItems: %v", err)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	items := testItems(200)

	l := mustOpen(t, Options{Dir: dir, CommitEvery: 16})
	if l.Recovery().Recovered {
		t.Fatal("fresh directory reported Recovered")
	}
	appendAll(t, l, items)
	if err := l.AppendEmitProgress(7); err != nil {
		t.Fatalf("AppendEmitProgress: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	if !rec.Recovered {
		t.Fatal("reopen did not report Recovered")
	}
	if rec.Snapshot != nil {
		t.Fatal("unexpected snapshot")
	}
	if !reflect.DeepEqual(rec.Suffix, items) {
		t.Fatalf("suffix mismatch: got %d items, want %d", len(rec.Suffix), len(items))
	}
	if !rec.HaveEmit || rec.EmitProgress != 7 {
		t.Fatalf("emit progress = (%d,%v), want (7,true)", rec.EmitProgress, rec.HaveEmit)
	}
	if rec.Records != uint64(len(items))+1 || rec.Items != uint64(len(items)) {
		t.Fatalf("records/items = %d/%d", rec.Records, rec.Items)
	}
	if rec.TruncatedBytes != 0 || rec.TruncatedRecords != 0 {
		t.Fatalf("clean journal reported truncation: %d bytes", rec.TruncatedBytes)
	}
	l2.Close()
}

func TestTupleValueBitsSurvive(t *testing.T) {
	dir := t.TempDir()
	weird := []stream.Item{
		stream.DataItem(stream.Tuple{TS: 1, Arrival: 1, Value: math.NaN()}),
		stream.DataItem(stream.Tuple{TS: 2, Arrival: 2, Value: math.Inf(-1)}),
		stream.DataItem(stream.Tuple{TS: 3, Arrival: 3, Value: math.Copysign(0, -1)}),
	}
	l := mustOpen(t, Options{Dir: dir})
	appendAll(t, l, weird)
	l.Close()

	l2 := mustOpen(t, Options{Dir: dir})
	got := l2.Recovery().Suffix
	l2.Close()
	if len(got) != 3 {
		t.Fatalf("got %d items", len(got))
	}
	for i := range got {
		gb := math.Float64bits(got[i].Tuple.Value)
		wb := math.Float64bits(weird[i].Tuple.Value)
		if gb != wb {
			t.Fatalf("item %d value bits %x, want %x", i, gb, wb)
		}
	}
}

// Uncommitted appends must vanish on crash; committed ones must survive.
func TestGroupCommitCrashLoss(t *testing.T) {
	dir := t.TempDir()
	items := testItems(100)

	l := mustOpen(t, Options{Dir: dir, CommitEvery: 1 << 20})
	appendAll(t, l, items[:60])
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	appendAll(t, l, items[60:]) // never committed
	l.Abandon()

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	l2.Close()
	if !reflect.DeepEqual(rec.Suffix, items[:60]) {
		t.Fatalf("recovered %d items, want the 60 committed ones", len(rec.Suffix))
	}
}

// Automatic group commit at CommitEvery makes appends durable without an
// explicit Commit call.
func TestAutoGroupCommit(t *testing.T) {
	dir := t.TempDir()
	items := testItems(64)
	l := mustOpen(t, Options{Dir: dir, CommitEvery: 32})
	appendAll(t, l, items) // two auto-commits, nothing explicit
	l.Abandon()

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	l2.Close()
	if !reflect.DeepEqual(rec.Suffix, items) {
		t.Fatalf("recovered %d items, want all %d", len(rec.Suffix), len(items))
	}
}

// A torn record at the journal tail is truncated away and appending
// continues from the repaired end — recovery never refuses to start.
func TestTornTailTruncateAndContinue(t *testing.T) {
	dir := t.TempDir()
	items := testItems(50)
	l := mustOpen(t, Options{Dir: dir})
	appendAll(t, l, items)
	l.Close()

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %d", err, len(segs))
	}
	// Append half a frame of garbage: a record whose payload never made it.
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	if !reflect.DeepEqual(rec.Suffix, items) {
		t.Fatalf("recovered %d items, want %d", len(rec.Suffix), len(items))
	}
	if rec.TruncatedBytes != 5 || rec.TruncatedRecords != 1 {
		t.Fatalf("truncation = %d bytes / %d records, want 5/1", rec.TruncatedBytes, rec.TruncatedRecords)
	}
	// The log must keep working after repair.
	more := testItems(10)
	appendAll(t, l2, more)
	l2.Close()

	l3 := mustOpen(t, Options{Dir: dir})
	rec = l3.Recovery()
	l3.Close()
	want := append(append([]stream.Item{}, items...), more...)
	if !reflect.DeepEqual(rec.Suffix, want) {
		t.Fatalf("after repair+append recovered %d items, want %d", len(rec.Suffix), len(want))
	}
	if rec.TruncatedBytes != 0 {
		t.Fatal("second recovery still sees torn bytes")
	}
}

// A corrupted record body (CRC mismatch) at the tail is also repaired.
func TestCorruptTailCRC(t *testing.T) {
	dir := t.TempDir()
	items := testItems(20)
	l := mustOpen(t, Options{Dir: dir})
	appendAll(t, l, items)
	l.Close()

	segs, _ := listSegments(dir)
	info, err := os.Stat(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the last record's payload.
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	l2.Close()
	if len(rec.Suffix) != len(items)-1 {
		t.Fatalf("recovered %d items, want %d (last record torn)", len(rec.Suffix), len(items)-1)
	}
	if rec.TruncatedRecords != 1 {
		t.Fatalf("truncRecords = %d, want 1", rec.TruncatedRecords)
	}
	if !reflect.DeepEqual(rec.Suffix, items[:len(items)-1]) {
		t.Fatal("recovered prefix differs from the intact records")
	}
}

// A final segment whose header itself is torn is crash debris from segment
// creation: it is removed and the previous segment becomes the tail.
func TestTornHeaderFinalSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	items := testItems(30)
	l := mustOpen(t, Options{Dir: dir})
	appendAll(t, l, items)
	l.Close()

	debris := filepath.Join(dir, segmentName(uint64(len(items))))
	if err := os.WriteFile(debris, []byte("AQJL"), 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	if !reflect.DeepEqual(rec.Suffix, items) {
		t.Fatalf("recovered %d items, want %d", len(rec.Suffix), len(items))
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatal("debris segment not removed")
	}
	// Appends land after the intact records.
	more := testItems(5)
	appendAll(t, l2, more)
	l2.Close()
	l3 := mustOpen(t, Options{Dir: dir})
	got := l3.Recovery().Suffix
	l3.Close()
	if len(got) != len(items)+len(more) {
		t.Fatalf("after debris repair got %d items, want %d", len(got), len(items)+len(more))
	}
}

// Corruption in the middle of the journal (not the tail) is not crash
// debris and must fail recovery loudly.
func TestMiddleCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	// Two segments: small cap forces rotation.
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: segHeaderSize + 4*tupleFrame})
	items := testItems(10)
	for i, it := range items {
		if it.Heartbeat { // keep sizes uniform for this test
			items[i] = stream.DataItem(stream.Tuple{TS: int64(i), Arrival: int64(i), Seq: uint64(i)})
		}
	}
	appendAll(t, l, items)
	l.Close()

	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, segHeaderSize+recHeaderSize+1); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a journal with middle corruption")
	}
}

func TestSegmentRotationAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	items := testItems(40)
	for i := range items {
		items[i] = stream.DataItem(stream.Tuple{TS: int64(i), Arrival: int64(i), Seq: uint64(i)})
	}
	// 4 tuples per segment.
	opts := Options{Dir: dir, SegmentBytes: segHeaderSize + 4*tupleFrame, CommitEvery: 1}
	l := mustOpen(t, opts)
	appendAll(t, l, items[:18])
	l.Close()

	segs, _ := listSegments(dir)
	if len(segs) != 5 { // 4+4+4+4+2
		t.Fatalf("got %d segments, want 5", len(segs))
	}
	for i, seg := range segs {
		if seg.first != uint64(i*4) {
			t.Fatalf("segment %d first=%d, want %d", i, seg.first, i*4)
		}
	}

	l2 := mustOpen(t, opts)
	if !reflect.DeepEqual(l2.Recovery().Suffix, items[:18]) {
		t.Fatal("multi-segment recovery mismatch")
	}
	appendAll(t, l2, items[18:])
	l2.Close()

	l3 := mustOpen(t, opts)
	got := l3.Recovery().Suffix
	l3.Close()
	if !reflect.DeepEqual(got, items) {
		t.Fatalf("after reopen+append recovered %d items, want %d", len(got), len(items))
	}
}

func TestSnapshotRoundTripAndSuffix(t *testing.T) {
	dir := t.TempDir()
	items := testItems(120)
	l := mustOpen(t, Options{Dir: dir, SnapshotEvery: 50})
	appendAll(t, l, items[:50])
	if !l.ShouldSnapshot() {
		t.Fatal("ShouldSnapshot false after SnapshotEvery items")
	}
	records, count, err := l.CutForSnapshot()
	if err != nil {
		t.Fatalf("CutForSnapshot: %v", err)
	}
	if records != 50 || count != 50 {
		t.Fatalf("cut = %d/%d, want 50/50", records, count)
	}
	if l.ShouldSnapshot() {
		t.Fatal("ShouldSnapshot still true after cut")
	}
	snap := &Snapshot{
		Query:        "q1",
		Records:      records,
		Items:        count,
		Now:          1234,
		EmitProgress: 4,
		HaveEmit:     true,
	}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	appendAll(t, l, items[50:])
	l.Close()

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	l2.Close()
	if rec.Snapshot == nil {
		t.Fatal("no snapshot recovered")
	}
	if rec.Snapshot.Query != "q1" || rec.Snapshot.Records != 50 || rec.Snapshot.Now != 1234 {
		t.Fatalf("snapshot fields: %+v", rec.Snapshot)
	}
	if !reflect.DeepEqual(rec.Suffix, items[50:]) {
		t.Fatalf("suffix has %d items, want %d (journal past the cut)", len(rec.Suffix), len(items)-50)
	}
	if !rec.HaveEmit || rec.EmitProgress != 4 {
		t.Fatalf("emit progress = (%d,%v), want (4,true)", rec.EmitProgress, rec.HaveEmit)
	}
	if rec.Items != uint64(len(items)) {
		t.Fatalf("total items %d, want %d", rec.Items, len(items))
	}
}

// Journaled emit progress newer than the snapshot's wins.
func TestEmitProgressMaxOfSnapshotAndJournal(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	appendAll(t, l, testItems(10))
	records, count, _ := l.CutForSnapshot()
	if err := l.WriteSnapshot(&Snapshot{Records: records, Items: count, EmitProgress: 3, HaveEmit: true}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEmitProgress(9); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEmitProgress(6); err != nil { // stale, dropped
		t.Fatal(err)
	}
	l.Close()

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	l2.Close()
	if rec.EmitProgress != 9 || !rec.HaveEmit {
		t.Fatalf("emit progress = (%d,%v), want (9,true)", rec.EmitProgress, rec.HaveEmit)
	}
}

// Satellite edge case: recovery with zero journal suffix — a snapshot that
// covers every journaled record.
func TestRecoveryWithZeroSuffix(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	appendAll(t, l, testItems(25))
	records, count, _ := l.CutForSnapshot()
	if err := l.WriteSnapshot(&Snapshot{Records: records, Items: count}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	if !rec.Recovered {
		t.Fatal("not recovered")
	}
	if rec.Snapshot == nil || len(rec.Suffix) != 0 {
		t.Fatalf("want snapshot with empty suffix, got snap=%v suffix=%d", rec.Snapshot != nil, len(rec.Suffix))
	}
	if rec.Items != 25 {
		t.Fatalf("items = %d, want 25", rec.Items)
	}
	// Appending after a zero-suffix recovery keeps indices dense.
	appendAll(t, l2, testItems(5))
	l2.Close()
	l3 := mustOpen(t, Options{Dir: dir})
	if got := len(l3.Recovery().Suffix); got != 5 {
		t.Fatalf("suffix after append = %d, want 5", got)
	}
	l3.Close()
}

// Satellite edge case: an empty segment (header only, zero records) — left
// behind when a process dies right after rotation — recovers cleanly.
func TestEmptySegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	l.Abandon() // fresh segment with only a header

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	if len(rec.Suffix) != 0 || rec.Records != 0 {
		t.Fatalf("empty segment: suffix=%d records=%d", len(rec.Suffix), rec.Records)
	}
	items := testItems(3)
	appendAll(t, l2, items)
	l2.Close()

	l3 := mustOpen(t, Options{Dir: dir})
	got := l3.Recovery().Suffix
	l3.Close()
	if !reflect.DeepEqual(got, items) {
		t.Fatal("append into recovered empty segment lost items")
	}
}

// Satellite edge case: snapshot cut exactly at a segment boundary — the
// snapshot's record count equals the next segment's first index, so the
// replay suffix starts precisely at a segment header.
func TestSnapshotAtSegmentBoundary(t *testing.T) {
	dir := t.TempDir()
	items := testItems(12)
	for i := range items {
		items[i] = stream.DataItem(stream.Tuple{TS: int64(i), Arrival: int64(i), Seq: uint64(i)})
	}
	opts := Options{Dir: dir, SegmentBytes: segHeaderSize + 4*tupleFrame, CommitEvery: 1}
	l := mustOpen(t, opts)
	appendAll(t, l, items[:4]) // fills segment 0 exactly
	records, count, _ := l.CutForSnapshot()
	if records != 4 {
		t.Fatalf("cut at %d, want 4", records)
	}
	if err := l.WriteSnapshot(&Snapshot{Records: records, Items: count}); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, items[4:]) // rotation: segment 1 starts at record 4
	l.Close()

	segs, _ := listSegments(dir)
	if len(segs) < 2 || segs[1].first != 4 {
		t.Fatalf("expected a segment starting at 4, got %+v", segs)
	}

	l2 := mustOpen(t, opts)
	rec := l2.Recovery()
	l2.Close()
	if rec.Snapshot == nil || rec.Snapshot.Records != 4 {
		t.Fatal("snapshot not recovered")
	}
	if !reflect.DeepEqual(rec.Suffix, items[4:]) {
		t.Fatalf("boundary suffix has %d items, want %d", len(rec.Suffix), len(items)-4)
	}
}

// Compaction after a snapshot removes fully covered segments and old
// snapshots, and the compacted journal still recovers.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	items := testItems(30)
	for i := range items {
		items[i] = stream.DataItem(stream.Tuple{TS: int64(i), Arrival: int64(i), Seq: uint64(i)})
	}
	opts := Options{Dir: dir, SegmentBytes: segHeaderSize + 4*tupleFrame, CommitEvery: 1}
	l := mustOpen(t, opts)
	appendAll(t, l, items[:10])
	for _, cut := range []int{10, 20} {
		records, count, _ := l.CutForSnapshot()
		if records != uint64(cut) {
			t.Fatalf("cut at %d, want %d", records, cut)
		}
		if err := l.WriteSnapshot(&Snapshot{Records: records, Items: count}); err != nil {
			t.Fatal(err)
		}
		if cut == 10 {
			appendAll(t, l, items[10:20])
		}
	}
	segs, _ := listSegments(dir)
	// Cut 20: segments with all records < 20 and not open are gone. The open
	// segment starts at 16, so segments 0,4,8,12 are deleted.
	if len(segs) != 1 || segs[0].first != 16 {
		t.Fatalf("after compaction segments = %+v, want just first=16", segs)
	}
	appendAll(t, l, items[20:])
	l.Close()

	l2 := mustOpen(t, opts)
	rec := l2.Recovery()
	l2.Close()
	if rec.Snapshot == nil || rec.Snapshot.Records != 20 {
		t.Fatal("latest snapshot not recovered after compaction")
	}
	if !reflect.DeepEqual(rec.Suffix, items[20:]) {
		t.Fatalf("post-compaction suffix has %d items, want %d", len(rec.Suffix), len(items)-20)
	}

	// A third snapshot prunes down to the latest two snapshot files.
	l3 := mustOpen(t, opts)
	appendAll(t, l3, testItems(4))
	records, count, _ := l3.CutForSnapshot()
	if err := l3.WriteSnapshot(&Snapshot{Records: records, Items: count}); err != nil {
		t.Fatal(err)
	}
	l3.Close()
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 2 {
		t.Fatalf("kept %d snapshots, want 2", len(snaps))
	}
}

// A damaged newest snapshot is skipped in favor of an older valid one.
func TestLoadLatestSnapshotSkipsBad(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	appendAll(t, l, testItems(10))
	records, count, _ := l.CutForSnapshot()
	if err := l.WriteSnapshot(&Snapshot{Records: records, Items: count, Query: "good"}); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testItems(10))
	l.Close()
	// Fake newer snapshot with garbage contents.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(999)), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	l2.Close()
	if rec.Snapshot == nil || rec.Snapshot.Query != "good" {
		t.Fatal("did not fall back to the older valid snapshot")
	}
	if len(rec.Suffix) != 10 {
		t.Fatalf("suffix = %d items, want 10", len(rec.Suffix))
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.json")
	if err := WriteFileAtomic(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "two" {
		t.Fatalf("read %q, %v", data, err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %d entries", len(ents))
	}
}
