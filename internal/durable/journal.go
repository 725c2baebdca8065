package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stream"
)

// Journal file format. A journal is a directory of segment files named
// seg-<firstRecordIndex>.wal. Each segment starts with a 16-byte header —
// 8-byte magic plus the little-endian first record index, which must match
// the filename — followed by framed records:
//
//	uint32 payloadLen | uint32 CRC32C(payload) | payload
//
// The payload's first byte is the record kind. The writer writes version 2
// segments (magic "AQJL0002") with two kinds of record: a batch (0x04), the
// items of one append, and the emission cursor (0x03), a little-endian
// int64. A batch is a uvarint item count, then per item a uvarint tag — 0
// for a heartbeat, 1+Src for a tuple — and zigzag-varint deltas against the
// previous item of the record:
//
//	heartbeat: Watermark (it is the next item's TS base)
//	tuple:     TS, Arrival, Seq, then a uvarint Key and the 8 raw bytes of Value
//
// Every record starts from a zero base, so it decodes on its own; values are
// raw float bits, so NaN payloads survive exactly. One CRC covers the whole
// batch, so a torn batch is dropped whole. Version 1 segments ("AQJL0001")
// hold one record per item — 0x01 a tuple as 41 fixed-width bytes, 0x02 a
// heartbeat's watermark — and the same cursor record; they are read, never
// written.
//
// Record indices are dense across segments: segment boundaries carry no
// semantics beyond rotation, and a snapshot references the journal as a
// plain record count.
const (
	segMagicV1    = "AQJL0001"
	segMagic      = "AQJL0002"
	segHeaderSize = 16
	recHeaderSize = 8
	// maxRecordSize bounds a frame's claimed payload length; anything
	// larger is treated as corruption rather than attempted as an
	// allocation.
	maxRecordSize = 1 << 20
	// maxItemBytes is the largest encoded item: a 2-byte tag, four 10-byte
	// varints and the value. A batch record holds at most maxBatchItems, so
	// it always fits maxRecordSize; a longer append is split.
	maxItemBytes  = 2 + 4*binary.MaxVarintLen64 + 8
	maxBatchItems = (maxRecordSize - 1 - binary.MaxVarintLen64) / maxItemBytes
	// minItemBytes is the smallest encoded item (a heartbeat close to its
	// base): it bounds the item count a payload can honestly claim.
	minItemBytes = 2
)

// Record kinds.
const (
	kindTuple        = 0x01 // version 1: accepted data tuple (post-shedding)
	kindHeartbeat    = 0x02 // version 1: heartbeat punctuation with watermark
	kindEmitProgress = 0x03 // window operator's next primary emission index
	kindBatch        = 0x04 // version 2: the items of one append
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func segmentName(first uint64) string { return fmt.Sprintf("seg-%016d.wal", first) }

type segmentInfo struct {
	path  string
	first uint64 // index of the segment's first record
	v1    bool   // a version 1 segment; known once the segment is scanned
}

// listSegments returns the journal's segments sorted by first record index.
func listSegments(dir string) ([]segmentInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("durable: malformed segment name %q", name)
		}
		segs = append(segs, segmentInfo{path: filepath.Join(dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// openFrame reserves a record header on buf; the payload is appended behind
// it and sealFrame fills it in.
func openFrame(buf []byte) []byte { return binary.LittleEndian.AppendUint64(buf, 0) }

// sealFrame fills in the header (length + CRC) of the frame buf from the
// payload behind it.
func sealFrame(buf []byte) []byte {
	payload := buf[recHeaderSize:]
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// putUvarint is binary.PutUvarint with the common one- and two-byte cases
// inlined.
func putUvarint(b []byte, v uint64) int {
	if v < 1<<7 {
		b[0] = byte(v)
		return 1
	}
	if v < 1<<14 {
		b[1] = byte(v >> 7)
		b[0] = byte(v) | 0x80
		return 2
	}
	return binary.PutUvarint(b, v)
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// appendBatchPayload encodes items, at most maxBatchItems of them, as one
// batch payload.
func appendBatchPayload(buf []byte, items []stream.Item) []byte {
	at, most := len(buf), 1+binary.MaxVarintLen64+len(items)*maxItemBytes
	buf = slices.Grow(buf, most)
	b := buf[at : at+most]
	b[0] = kindBatch
	n := 1 + binary.PutUvarint(b[1:], uint64(len(items)))
	var ts, arr int64
	var seq uint64
	for i := range items {
		it := &items[i]
		e := b[n : n+maxItemBytes]
		if it.Heartbeat {
			e[0] = 0
			n += 1 + putUvarint(e[1:], zigzag(it.Watermark-ts))
			ts = it.Watermark
			continue
		}
		t := &it.Tuple
		k := putUvarint(e, uint64(t.Src)+1)
		k += putUvarint(e[k:], zigzag(t.TS-ts))
		k += putUvarint(e[k:], zigzag(t.Arrival-arr))
		k += putUvarint(e[k:], zigzag(int64(t.Seq-seq)))
		k += putUvarint(e[k:], t.Key)
		binary.LittleEndian.PutUint64(e[k:], math.Float64bits(t.Value))
		n += k + 8
		ts, arr, seq = t.TS, t.Arrival, t.Seq
	}
	return buf[:at+n]
}

func appendEmitPayload(buf []byte, nextEmit int64) []byte {
	buf = append(buf, kindEmitProgress)
	return binary.LittleEndian.AppendUint64(buf, uint64(nextEmit))
}

// batchReader walks a batch payload; a read past its end or an overlong
// varint sets bad.
type batchReader struct {
	p   []byte
	bad bool
}

func (r *batchReader) uvarint() uint64 {
	if len(r.p) > 0 && r.p[0] < 0x80 {
		v := uint64(r.p[0])
		r.p = r.p[1:]
		return v
	}
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *batchReader) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *batchReader) uint64() uint64 {
	if len(r.p) < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p)
	r.p = r.p[8:]
	return v
}

// decodeBatch appends a batch payload's items (kind byte stripped) to items.
func decodeBatch(body []byte, items []stream.Item) ([]stream.Item, error) {
	r := batchReader{p: body}
	n := r.uvarint()
	if r.bad || n == 0 || n > uint64(len(r.p)/minItemBytes) {
		return items, fmt.Errorf("durable: batch record claims %d items in %d bytes", n, len(body))
	}
	at := len(items)
	items = slices.Grow(items, int(n))[:at+int(n)]
	var ts, arr int64
	var seq uint64
	for i := range items[at:] {
		it := &items[at+i]
		tag := r.uvarint()
		if tag == 0 {
			ts += r.zigzag()
			*it = stream.HeartbeatItem(ts)
			continue
		}
		if tag > math.MaxUint8+1 {
			return items[:at], fmt.Errorf("durable: batch item tag %d", tag)
		}
		ts += r.zigzag()
		arr += r.zigzag()
		seq += uint64(r.zigzag())
		*it = stream.DataItem(stream.Tuple{TS: ts, Arrival: arr, Seq: seq, Key: r.uvarint(), Src: uint8(tag - 1),
			Value: math.Float64frombits(r.uint64())})
	}
	if r.bad || len(r.p) != 0 {
		return items[:at], fmt.Errorf("durable: batch record of %d items does not fill its %d bytes", n, len(body))
	}
	return items, nil
}

// decodeV1Item decodes a version 1 tuple or heartbeat payload body.
func decodeV1Item(kind byte, body []byte) (stream.Item, error) {
	if kind == kindHeartbeat {
		if len(body) != 8 {
			return stream.Item{}, fmt.Errorf("durable: heartbeat record has %d payload bytes, want 8", len(body))
		}
		return stream.HeartbeatItem(int64(binary.LittleEndian.Uint64(body))), nil
	}
	if len(body) != 41 {
		return stream.Item{}, fmt.Errorf("durable: tuple record has %d payload bytes, want 41", len(body))
	}
	return stream.DataItem(stream.Tuple{
		TS:      int64(binary.LittleEndian.Uint64(body[0:8])),
		Arrival: int64(binary.LittleEndian.Uint64(body[8:16])),
		Seq:     binary.LittleEndian.Uint64(body[16:24]),
		Key:     binary.LittleEndian.Uint64(body[24:32]),
		Src:     body[32],
		Value:   math.Float64frombits(binary.LittleEndian.Uint64(body[33:41])),
	}), nil
}

// decodeRecord decodes one record payload of a segment of the given version:
// an item record's items are appended to items, a cursor record's value is
// returned as emit.
func decodeRecord(p []byte, v1 bool, items []stream.Item) (_ []stream.Item, emit int64, isEmit bool, err error) {
	if len(p) == 0 {
		return items, 0, false, fmt.Errorf("durable: empty record payload")
	}
	kind, body := p[0], p[1:]
	switch {
	case kind == kindEmitProgress:
		if len(body) != 8 {
			return items, 0, false, fmt.Errorf("durable: cursor record has %d payload bytes, want 8", len(body))
		}
		return items, int64(binary.LittleEndian.Uint64(body)), true, nil
	case kind == kindBatch && !v1:
		items, err = decodeBatch(body, items)
		return items, 0, false, err
	case (kind == kindTuple || kind == kindHeartbeat) && v1:
		it, err := decodeV1Item(kind, body)
		if err != nil {
			return items, 0, false, err
		}
		return append(items, it), 0, false, nil
	}
	return items, 0, false, fmt.Errorf("durable: unknown record kind %d", kind)
}

// writeBuffer sizes the journal's write buffer to hold a ring batch's record
// and what is buffered before it, so that batches reach the OS together at
// their group commit.
const writeBuffer = 64 << 10

// journalWriter appends framed records across rotating segments with
// buffered group-commit writes.
type journalWriter struct {
	dir      string
	segBytes int64

	f        *os.File
	bw       *bufio.Writer
	segStart uint64 // first record index of the open segment
	segSize  int64  // bytes in the open segment, buffered writes included

	records uint64 // total records appended (all segments, all time)
	items   uint64 // items in those records (tuples and heartbeats)

	scratch []byte // the frame being appended
	m       *Metrics
}

// newJournalWriter positions a writer at the journal's end. last is the
// (already tail-repaired) final segment, nil when a fresh segment should be
// created at record index records. A version 1 final segment is sealed and a
// version 2 one started behind it.
func newJournalWriter(dir string, segBytes int64, records, items uint64, last *segmentInfo, m *Metrics) (*journalWriter, error) {
	w := &journalWriter{dir: dir, segBytes: segBytes, records: records, items: items, m: m}
	if last != nil && last.v1 {
		if err := sealV1(*last, records); err != nil {
			return nil, err
		}
		last = nil
	}
	if last == nil {
		if err := w.openSegment(records); err != nil {
			return nil, err
		}
		return w, nil
	}
	f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w.f, w.bw = f, bufio.NewWriterSize(f, writeBuffer)
	w.segStart, w.segSize = last.first, info.Size()
	return w, nil
}

// sealV1 syncs a version 1 final segment, which is never appended to. One
// that holds no record starts where its successor will, so it is removed.
func sealV1(seg segmentInfo, records uint64) error {
	if seg.first == records {
		if err := os.Remove(seg.path); err != nil {
			return err
		}
		return syncDir(filepath.Dir(seg.path))
	}
	f, err := os.OpenFile(seg.path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openSegment creates and syncs a fresh segment whose first record will
// have index first.
func (w *journalWriter) openSegment(first uint64) error {
	path := filepath.Join(w.dir, segmentName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], first)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.bw = f, bufio.NewWriterSize(f, writeBuffer)
	w.segStart, w.segSize = first, segHeaderSize
	return nil
}

// rotate syncs and closes the open segment and starts the next one.
// fsync-on-rotate is the journal's durability floor: everything in a sealed
// segment is on stable storage.
func (w *journalWriter) rotate() error {
	if err := w.sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.m.noteRotation()
	return w.openSegment(w.records)
}

// appendItems appends items as one batch record, or as several when there
// are more than one record holds.
func (w *journalWriter) appendItems(items []stream.Item) error {
	for len(items) > 0 {
		n := min(len(items), maxBatchItems)
		w.scratch = sealFrame(appendBatchPayload(openFrame(w.scratch[:0]), items[:n]))
		if err := w.appendFrame(w.scratch); err != nil {
			return err
		}
		w.items += uint64(n)
		items = items[n:]
	}
	return nil
}

// appendEmit frames and appends one emit-progress record.
func (w *journalWriter) appendEmit(nextEmit int64) error {
	w.scratch = sealFrame(appendEmitPayload(openFrame(w.scratch[:0]), nextEmit))
	return w.appendFrame(w.scratch)
}

// appendFrame buffers one framed record. A frame that would overflow a
// segment holding a record already seals it and opens the next. A frame
// reaches the OS in one write(2): when it does not fit behind what is
// buffered, the buffered bytes are flushed first, and a frame larger than the
// buffer is written straight through.
func (w *journalWriter) appendFrame(frame []byte) error {
	n := int64(len(frame))
	if w.segSize+n > w.segBytes && w.segSize > segHeaderSize {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	if len(frame) > w.bw.Available() && w.bw.Buffered() > 0 {
		if err := w.bw.Flush(); err != nil {
			return err
		}
	}
	if _, err := w.bw.Write(frame); err != nil {
		return err
	}
	w.segSize += n
	w.records++
	return nil
}

// flush pushes buffered records to the OS (group commit: they survive a
// process crash, not yet a machine crash).
func (w *journalWriter) flush() error { return w.bw.Flush() }

// sync flushes and fsyncs the open segment.
func (w *journalWriter) sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	w.m.noteSync()
	return w.f.Sync()
}

func (w *journalWriter) close() error {
	if err := w.sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// abandon drops buffered, uncommitted records and closes the file without
// flushing — the crash-simulation hook used by the DST harness: everything
// past the last Commit vanishes, exactly as if the process had been killed.
func (w *journalWriter) abandon() {
	w.bw = bufio.NewWriter(io.Discard)
	w.f.Close()
}

// scanResult is what a journal scan recovers. Item totals are relative to
// the skip point: the caller adds the snapshot's own item count.
type scanResult struct {
	items        []stream.Item // item records with index >= skip, in order
	emitProgress int64         // max emit-progress value seen (monotone)
	haveEmit     bool
	records      uint64 // total record count after repair (>= skip)
	tail         uint64 // record index reached by physical scanning
	lastSeg      *segmentInfo
	truncBytes   int64 // torn tail bytes removed
	truncRecords int   // torn tail frames (or debris segments) removed
}

// scanJournal reads every segment in dir, skipping (but counting) records
// below skip, and repairs a torn tail: a short or checksum-failing record
// at the end of the final segment is truncated away and the scan ends
// there. The same damage anywhere else is hard corruption and errors out —
// recovery must never silently drop acknowledged middle records.
func scanJournal(dir string, skip uint64, repair bool) (*scanResult, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	res := &scanResult{records: skip}
	if len(segs) == 0 {
		return res, nil
	}
	if segs[0].first > skip {
		return nil, fmt.Errorf("durable: journal starts at record %d but snapshot covers only %d — compacted too far",
			segs[0].first, skip)
	}
	idx := segs[0].first
	for si := range segs {
		seg := &segs[si]
		if seg.first != idx {
			return nil, fmt.Errorf("durable: journal gap: segment %s starts at %d, expected %d", seg.path, seg.first, idx)
		}
		last := si == len(segs)-1
		err := scanSegment(seg, last, repair, skip, &idx, res)
		if err == errSegmentRemoved {
			if si > 0 {
				res.lastSeg = &segs[si-1]
			}
			break
		}
		if err != nil {
			return nil, err
		}
		if last {
			res.lastSeg = seg
		}
	}
	res.tail = idx
	if idx > res.records {
		res.records = idx
	}
	return res, nil
}

// errSegmentRemoved signals that the final segment was header-torn crash
// debris and was removed; the previous segment (if any) is the tail.
var errSegmentRemoved = errors.New("durable: torn final segment removed")

// scanSegment reads one segment, advancing *idx per valid record, and notes
// the segment's version in seg.
func scanSegment(seg *segmentInfo, last, repair bool, skip uint64, idx *uint64, res *scanResult) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return err
	}
	defer f.Close()

	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	tear := func(off int64) error {
		// Damage at the tail of the final segment: expected crash debris.
		if !last {
			return fmt.Errorf("durable: segment %s corrupt at offset %d (not the journal tail)", seg.path, off)
		}
		res.truncBytes += size - off
		res.truncRecords++
		if repair {
			if err := os.Truncate(seg.path, off); err != nil {
				return fmt.Errorf("durable: truncating torn tail of %s: %w", seg.path, err)
			}
		}
		return nil
	}

	var hdr [segHeaderSize]byte
	_, err = io.ReadFull(f, hdr[:])
	if err == nil && string(hdr[:8]) != segMagic && string(hdr[:8]) != segMagicV1 {
		err = fmt.Errorf("durable: segment %s: bad magic", seg.path)
	}
	if err != nil {
		// The header never made it to disk, or its write was torn. For the
		// final segment that is crash debris from segment creation; remove
		// the file entirely so the writer can recreate it.
		if last {
			res.truncBytes += size
			res.truncRecords++
			if repair {
				if err := os.Remove(seg.path); err != nil {
					return err
				}
			}
			return errSegmentRemoved
		}
		return fmt.Errorf("durable: segment %s: short header or bad magic", seg.path)
	}
	if first := binary.LittleEndian.Uint64(hdr[8:]); first != seg.first {
		return fmt.Errorf("durable: segment %s: header index %d disagrees with name", seg.path, first)
	}
	seg.v1 = string(hdr[:8]) == segMagicV1

	br := bufio.NewReader(f)
	off := int64(segHeaderSize)
	var rec [recHeaderSize]byte
	var payload []byte
	var discard []stream.Item
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				return nil // clean end of segment
			}
			return tear(off)
		}
		plen := binary.LittleEndian.Uint32(rec[0:4])
		want := binary.LittleEndian.Uint32(rec[4:8])
		// A claimed length past the file's end is a torn frame: it is never
		// attempted as an allocation.
		if plen > maxRecordSize || int64(plen) > size-off-recHeaderSize {
			return tear(off)
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return tear(off)
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return tear(off)
		}
		// A record below skip is decoded all the same, into a scratch
		// slice: it must be intact too.
		skipped := *idx < skip
		dst := res.items
		if skipped {
			dst = discard[:0]
		}
		items, emit, isEmit, err := decodeRecord(payload, seg.v1, dst)
		if err != nil {
			return tear(off)
		}
		switch {
		case isEmit:
			if !res.haveEmit || emit > res.emitProgress {
				res.emitProgress, res.haveEmit = emit, true
			}
		case skipped:
			discard = items
		default:
			res.items = items
		}
		*idx++
		off += int64(recHeaderSize) + int64(plen)
	}
}
