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
	"sort"
	"strconv"
	"strings"

	"repro/internal/stream"
)

// Journal file format. A journal is a directory of segment files named
// seg-<firstRecordIndex>.wal. Each segment starts with a 16-byte header —
// 8-byte magic "AQJL0001" plus the little-endian first record index, which
// must match the filename — followed by framed records:
//
//	uint32 payloadLen | uint32 CRC32C(payload) | payload
//
// The payload's first byte is the record kind; the rest is little-endian
// fixed-width fields. Record indices are dense across segments: segment
// boundaries carry no semantics beyond rotation, and a snapshot references
// the journal as a plain record count.
const (
	segMagic      = "AQJL0001"
	segHeaderSize = 16
	recHeaderSize = 8
	// maxRecordSize bounds a frame's claimed payload length; anything
	// larger is treated as corruption rather than attempted as an
	// allocation.
	maxRecordSize = 1 << 20
)

// Record kinds.
const (
	kindTuple        = 0x01 // accepted data tuple (post-shedding)
	kindHeartbeat    = 0x02 // heartbeat punctuation with watermark
	kindEmitProgress = 0x03 // window operator's next primary emission index
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func segmentName(first uint64) string { return fmt.Sprintf("seg-%016d.wal", first) }

type segmentInfo struct {
	path  string
	first uint64 // index of the segment's first record
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

// sealFrame fills in the header (length + CRC) of the frame at buf[at:] from
// the payload behind it.
func sealFrame(buf []byte, at int) []byte {
	payload := buf[at+recHeaderSize:]
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[at+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// appendItemPayload encodes a stream item. Tuple values round-trip as raw
// float bits so NaN payloads survive exactly.
func appendItemPayload(buf []byte, it stream.Item) []byte {
	if it.Heartbeat {
		buf = append(buf, kindHeartbeat)
		return binary.LittleEndian.AppendUint64(buf, uint64(it.Watermark))
	}
	t := it.Tuple
	buf = append(buf, kindTuple)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.TS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Arrival))
	buf = binary.LittleEndian.AppendUint64(buf, t.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, t.Key)
	buf = append(buf, t.Src)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Value))
}

func appendEmitPayload(buf []byte, nextEmit int64) []byte {
	buf = append(buf, kindEmitProgress)
	return binary.LittleEndian.AppendUint64(buf, uint64(nextEmit))
}

// decodePayload parses one record payload.
func decodePayload(p []byte) (it stream.Item, emit int64, kind byte, err error) {
	if len(p) == 0 {
		return it, 0, 0, fmt.Errorf("durable: empty record payload")
	}
	kind = p[0]
	body := p[1:]
	switch kind {
	case kindHeartbeat, kindEmitProgress:
		if len(body) != 8 {
			return it, 0, kind, fmt.Errorf("durable: record kind %d has %d payload bytes, want 8", kind, len(body))
		}
		v := int64(binary.LittleEndian.Uint64(body))
		if kind == kindHeartbeat {
			it = stream.HeartbeatItem(v)
		} else {
			emit = v
		}
		return it, emit, kind, nil
	case kindTuple:
		if len(body) != 41 {
			return it, 0, kind, fmt.Errorf("durable: tuple record has %d payload bytes, want 41", len(body))
		}
		t := stream.Tuple{
			TS:      int64(binary.LittleEndian.Uint64(body[0:8])),
			Arrival: int64(binary.LittleEndian.Uint64(body[8:16])),
			Seq:     binary.LittleEndian.Uint64(body[16:24]),
			Key:     binary.LittleEndian.Uint64(body[24:32]),
			Src:     body[32],
			Value:   math.Float64frombits(binary.LittleEndian.Uint64(body[33:41])),
		}
		return stream.DataItem(t), 0, kind, nil
	}
	return it, 0, kind, fmt.Errorf("durable: unknown record kind %d", kind)
}

// writeBuffer sizes the journal's write buffer to hold a ring batch's frames,
// so that a batch reaches the OS in one write(2) at its group commit.
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
	items   uint64 // subset of records that are items (tuple or heartbeat)

	scratch []byte // the frames being appended
	m       *Metrics
}

// newJournalWriter positions a writer at the journal's end. last is the
// (already tail-repaired) final segment, nil when a fresh segment should be
// created at record index records.
func newJournalWriter(dir string, segBytes int64, records, items uint64, last *segmentInfo, m *Metrics) (*journalWriter, error) {
	w := &journalWriter{dir: dir, segBytes: segBytes, records: records, items: items, m: m}
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

// appendItems frames a batch of item records into the scratch buffer, each
// exactly as it would be framed alone, and appends them.
func (w *journalWriter) appendItems(items []stream.Item) error {
	buf := w.scratch[:0]
	for _, it := range items {
		at := len(buf)
		buf = sealFrame(appendItemPayload(openFrame(buf), it), at)
	}
	w.scratch = buf
	if err := w.appendFrames(buf); err != nil {
		return err
	}
	w.items += uint64(len(items))
	return nil
}

// appendEmit frames and appends one emit-progress record.
func (w *journalWriter) appendEmit(nextEmit int64) error {
	w.scratch = sealFrame(appendEmitPayload(openFrame(w.scratch[:0]), nextEmit), 0)
	return w.appendFrames(w.scratch)
}

// appendFrames buffers framed records, handing the buffered writer one Write
// per segment they span. The rotation rule is applied before every frame: a
// frame that would overflow a segment holding a record already seals it, once
// the frames before it are written out, and opens the next.
func (w *journalWriter) appendFrames(frames []byte) error {
	start := 0
	for at := 0; at < len(frames); {
		frame := int64(recHeaderSize + binary.LittleEndian.Uint32(frames[at:]))
		if w.segSize+frame > w.segBytes && w.segSize > segHeaderSize {
			if _, err := w.bw.Write(frames[start:at]); err != nil {
				return err
			}
			if err := w.rotate(); err != nil {
				return err
			}
			start = at
		}
		w.segSize += frame
		w.records++
		at += int(frame)
	}
	_, err := w.bw.Write(frames[start:])
	return err
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
		seg := segs[si]
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
			res.lastSeg = &segs[si]
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

// scanSegment reads one segment, advancing *idx per valid record.
func scanSegment(seg segmentInfo, last, repair bool, skip uint64, idx *uint64, res *scanResult) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return err
	}
	defer f.Close()

	info, err := f.Stat()
	if err != nil {
		return err
	}
	tear := func(off int64) error {
		// Damage at the tail of the final segment: expected crash debris.
		if !last {
			return fmt.Errorf("durable: segment %s corrupt at offset %d (not the journal tail)", seg.path, off)
		}
		res.truncBytes += info.Size() - off
		res.truncRecords++
		if repair {
			if err := os.Truncate(seg.path, off); err != nil {
				return fmt.Errorf("durable: truncating torn tail of %s: %w", seg.path, err)
			}
		}
		return nil
	}

	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		// Header never made it to disk. For the final segment that is crash
		// debris from segment creation; remove the file entirely so the
		// writer can recreate it.
		if last {
			res.truncBytes += info.Size()
			res.truncRecords++
			if repair {
				if err := os.Remove(seg.path); err != nil {
					return err
				}
			}
			return errSegmentRemoved
		}
		return fmt.Errorf("durable: segment %s: short header", seg.path)
	}
	if string(hdr[:8]) != segMagic {
		if last {
			// A final segment whose header bytes are garbled is tail debris
			// too (the header write itself was torn).
			res.truncBytes += info.Size()
			res.truncRecords++
			if repair {
				if err := os.Remove(seg.path); err != nil {
					return err
				}
			}
			return errSegmentRemoved
		}
		return fmt.Errorf("durable: segment %s: bad magic", seg.path)
	}
	if first := binary.LittleEndian.Uint64(hdr[8:]); first != seg.first {
		return fmt.Errorf("durable: segment %s: header index %d disagrees with name", seg.path, first)
	}

	br := bufio.NewReader(f)
	off := int64(segHeaderSize)
	var rec [recHeaderSize]byte
	payload := make([]byte, 64)
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				return nil // clean end of segment
			}
			return tear(off)
		}
		plen := binary.LittleEndian.Uint32(rec[0:4])
		want := binary.LittleEndian.Uint32(rec[4:8])
		if plen > maxRecordSize {
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
		it, emit, kind, err := decodePayload(payload)
		if err != nil {
			return tear(off)
		}
		switch kind {
		case kindEmitProgress:
			if !res.haveEmit || emit > res.emitProgress {
				res.emitProgress, res.haveEmit = emit, true
			}
		default:
			if *idx >= skip {
				res.items = append(res.items, it)
			}
		}
		*idx++
		off += int64(recHeaderSize) + int64(plen)
	}
}
