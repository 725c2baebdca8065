package durable

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/stream"
)

// itemsFromBytes builds a batch from fuzz bytes: per item a selector byte —
// even for a heartbeat, which takes one 8-byte word as its watermark; odd for
// a tuple, which takes a Src byte and five words (TS, Arrival, Seq, Key and
// the Value's bits). Words past the end of data read as zero.
func itemsFromBytes(data []byte) []stream.Item {
	word := func() uint64 {
		var w [8]byte
		data = data[copy(w[:], data):]
		return binary.LittleEndian.Uint64(w[:])
	}
	var items []stream.Item
	for len(data) > 0 && len(items) < maxBatchItems {
		sel := data[0]
		data = data[1:]
		if sel%2 == 0 {
			items = append(items, stream.HeartbeatItem(int64(word())))
			continue
		}
		var src byte
		if len(data) > 0 {
			src, data = data[0], data[1:]
		}
		items = append(items, stream.DataItem(stream.Tuple{Src: src, TS: int64(word()), Arrival: int64(word()),
			Seq: word(), Key: word(), Value: math.Float64frombits(word())}))
	}
	return items
}

// itemBytes is itemsFromBytes' inverse, for seeds.
func itemBytes(items ...stream.Item) []byte {
	var b []byte
	for _, it := range items {
		if it.Heartbeat {
			b = binary.LittleEndian.AppendUint64(append(b, 0), uint64(it.Watermark))
			continue
		}
		t := it.Tuple
		b = append(b, 1, t.Src)
		for _, w := range []uint64{uint64(t.TS), uint64(t.Arrival), t.Seq, t.Key, math.Float64bits(t.Value)} {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return b
}

// sameBits reports whether two item sequences are equal to the bit, NaN
// payloads included.
func sameBits(a, b []stream.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		xv, yv := math.Float64bits(x.Tuple.Value), math.Float64bits(y.Tuple.Value)
		x.Tuple.Value, y.Tuple.Value = 0, 0
		if x != y || xv != yv {
			return false
		}
	}
	return true
}

// scanBytes scans data as the body of a final segment with the given magic,
// repairing nothing, and returns what the scan recovered and the bytes it
// allocated doing so.
func scanBytes(t *testing.T, dir, magic string, data []byte) (*scanResult, uint64) {
	t.Helper()
	seg := segmentInfo{path: filepath.Join(dir, segmentName(0))}
	file := append([]byte(magic), make([]byte, 8)...)
	if err := os.WriteFile(seg.path, append(file, data...), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var idx uint64
	res := &scanResult{}
	err := scanSegment(&seg, true, false, 0, &idx, res)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%s segment: damage at the journal tail is repairable, got %v", magic, err)
	}
	return res, after.TotalAlloc - before.TotalAlloc
}

// FuzzJournalRecord holds the segment scanner to two properties. Arbitrary
// bytes behind a version 1 or version 2 segment header never panic it, and it
// allocates in proportion to the bytes it is given, never to what a frame
// claims — for any input under a few KB, far below maxRecordSize. And a
// batch built from the same bytes — NaN values, extreme deltas, Src 255, the
// largest Key, heartbeats — round-trips through a batch record bit for bit.
func FuzzJournalRecord(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1-journal", segmentName(0)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1[segHeaderSize : segHeaderSize+recHeaderSize+1+41]) // a version 1 tuple frame
	f.Add(sealFrame(appendBatchPayload(openFrame(nil), testItems(20))))
	f.Add(itemBytes(
		stream.DataItem(stream.Tuple{TS: math.MinInt64, Arrival: math.MaxInt64, Key: math.MaxUint64, Src: math.MaxUint8,
			Value: math.Float64frombits(0x7ff8_0000_dead_beef)}),
		stream.HeartbeatItem(math.MaxInt64),
		stream.DataItem(stream.Tuple{TS: math.MaxInt64, Arrival: math.MinInt64, Seq: math.MaxUint64,
			Value: math.Copysign(0, -1)}),
		stream.HeartbeatItem(math.MinInt64),
	))
	dir := f.TempDir() // one segment file, rewritten by every input
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, magic := range []string{segMagicV1, segMagic} {
			if _, alloc := scanBytes(t, dir, magic, data); alloc > 64<<10+128*uint64(len(data)) {
				t.Fatalf("%s segment: scanning %d bytes allocated %d", magic, len(data), alloc)
			}
		}

		items := itemsFromBytes(data)
		if len(items) == 0 {
			return
		}
		res, _ := scanBytes(t, dir, segMagic, sealFrame(appendBatchPayload(openFrame(nil), items)))
		if res.truncRecords != 0 || !sameBits(res.items, items) {
			t.Fatalf("%d items round-tripped as %d (%d torn records)", len(items), len(res.items), res.truncRecords)
		}
	})
}
