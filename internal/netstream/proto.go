// Package netstream is the wire layer of the network control plane: a
// newline-framed line protocol that carries stream items over TCP, a
// decoder that turns a connection back into stream.Items, a listener
// that feeds decoded items into a per-source sink (the fleet registry's
// broadcast rings), and a reconnecting client built on the resilience
// retry policy.
//
// The protocol is text, one frame per line, fields space-separated:
//
//	S <source> [tenant]                      hello: names the stream this
//	                                         connection feeds; must be the
//	                                         first frame
//	D <ts> <arrival> <seq> <key> <src> <value>   one data tuple
//	H <watermark>                            heartbeat / watermark
//	B <batchid> <sendms>                     optional batch provenance:
//	                                         client batch id + wall-clock
//	                                         send time (Unix ms) for every
//	                                         following item until the next
//	                                         B frame
//	# ...                                    comment, ignored
//
// Blank lines are ignored. ts/arrival/watermark are stream-time ms
// (int64), seq and key are uint64, src is uint8, value is a float64
// formatted with %g at full precision so decoding round-trips the bits.
// The B frame is a v2 extension: v1 producers simply never send it and
// v1 consumers never see it (the decoder swallows it), so the two
// protocol generations interoperate both ways. batchid is a uint64 ≥ 1;
// a replayed batch (reconnect resend) reuses its original id, which is
// how replay spans become visible server-side. docs/API.md has the full
// grammar and a walkthrough.
package netstream

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"repro/internal/stream"
)

// FrameKind discriminates decoded frames.
type FrameKind int

const (
	// FrameNone is a blank or comment line.
	FrameNone FrameKind = iota
	// FrameHello is the connection preamble naming source (and tenant).
	FrameHello
	// FrameData carries one data tuple in Item.
	FrameData
	// FrameHeartbeat carries a watermark in Item.
	FrameHeartbeat
	// FrameBatchMark carries wire provenance in Prov: it applies to
	// every following item frame until the next mark.
	FrameBatchMark
)

// Frame is one decoded protocol line.
type Frame struct {
	Kind   FrameKind
	Item   stream.Item      // FrameData / FrameHeartbeat
	Source string           // FrameHello
	Tenant string           // FrameHello, optional
	Prov   stream.BatchProv // FrameBatchMark
}

// MaxLine bounds one protocol line; longer lines are a protocol error
// (they cannot be produced by the encoder).
const MaxLine = 4096

// MaxNameLen bounds source and tenant names on the wire.
const MaxNameLen = 64

// ValidName reports whether s is usable as a source or tenant name:
// non-empty, at most MaxNameLen bytes, ASCII letters, digits, '_', '-',
// '.' only. The alphabet keeps names safe as metric label values, path
// components (durable dirs) and URL segments.
func ValidName(s string) bool {
	if len(s) == 0 || len(s) > MaxNameLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '_' || c == '-' || c == '.':
		default:
			return false
		}
	}
	return true
}

// AppendHello appends a hello frame (newline included). tenant may be
// empty.
func AppendHello(dst []byte, source, tenant string) []byte {
	dst = append(dst, 'S', ' ')
	dst = append(dst, source...)
	if tenant != "" {
		dst = append(dst, ' ')
		dst = append(dst, tenant...)
	}
	return append(dst, '\n')
}

// AppendItem appends one item frame (newline included).
func AppendItem(dst []byte, it stream.Item) []byte {
	if it.Heartbeat {
		dst = append(dst, 'H', ' ')
		dst = strconv.AppendInt(dst, int64(it.Watermark), 10)
		return append(dst, '\n')
	}
	t := it.Tuple
	dst = append(dst, 'D', ' ')
	dst = strconv.AppendInt(dst, int64(t.TS), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(t.Arrival), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, t.Seq, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, t.Key, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(t.Src), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendFloat(dst, t.Value, 'g', -1, 64)
	return append(dst, '\n')
}

// AppendBatchMark appends a batch-provenance frame (newline included).
func AppendBatchMark(dst []byte, p stream.BatchProv) []byte {
	dst = append(dst, 'B', ' ')
	dst = strconv.AppendUint(dst, p.BatchID, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, p.SendMS, 10)
	return append(dst, '\n')
}

// ParseLine decodes one protocol line (without its trailing newline; a
// trailing '\r' is tolerated for telnet-style clients). It never panics,
// whatever the input.
func ParseLine(line []byte) (Frame, error) {
	var f Frame
	var err error
	f.Kind, f.Source, f.Tenant, err = parseFrame(line, &f.Item, &f.Prov)
	if err != nil {
		return Frame{}, err
	}
	return f, nil
}

// parseFrame is the one frame parser: ParseLine and the Decoder both
// decode every line through it. It reads line left to right in a single
// pass and writes a data or heartbeat frame to *it and a batch mark to
// *prov in place (the destination it was not asked to write is left
// alone), so the decoder can parse straight into a batch slot. Fields
// are separated by exactly one space. Integers are decimal ASCII digits
// with strconv's base-10 grammar and range checks (intField, uintField);
// only the value goes through strconv.ParseFloat.
func parseFrame(line []byte, it *stream.Item, prov *stream.BatchProv) (kind FrameKind, source, tenant string, err error) {
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	if len(line) > MaxLine {
		return 0, "", "", errLineTooLong
	}
	if len(line) == 0 || line[0] == '#' {
		return FrameNone, "", "", nil
	}
	if len(line) < 3 || line[1] != ' ' {
		return 0, "", "", fmt.Errorf("netstream: malformed frame %q", line)
	}
	switch line[0] {
	case 'D':
		// A field that fails leaves i at 0, where the next one fails too.
		ts, i, ok1 := intField(line, 2, false)
		ar, i, ok2 := intField(line, i, false)
		seq, i, ok3 := uintField(line, i, false)
		key, i, ok4 := uintField(line, i, false)
		src, i, ok5 := uintField(line, i, false)
		val, err := strconv.ParseFloat(string(line[i:]), 64)
		if !(ok1 && ok2 && ok3 && ok4 && ok5) || src > math.MaxUint8 || err != nil {
			return 0, "", "", fmt.Errorf("netstream: data wants 'D <ts> <arrival> <seq> <key> <src> <value>', got %q", line)
		}
		*it = stream.Item{Tuple: stream.Tuple{
			TS: stream.Time(ts), Arrival: stream.Time(ar), Seq: seq,
			Key: key, Src: uint8(src), Value: val,
		}}
		return FrameData, "", "", nil
	case 'H':
		w, _, ok := intField(line, 2, true)
		if !ok {
			return 0, "", "", fmt.Errorf("netstream: heartbeat wants 'H <watermark>', got %q", line)
		}
		*it = stream.HeartbeatItem(stream.Time(w))
		return FrameHeartbeat, "", "", nil
	case 'B':
		id, i, ok1 := uintField(line, 2, false)
		send, _, ok2 := intField(line, i, true)
		if !ok1 || !ok2 || id == 0 {
			return 0, "", "", fmt.Errorf("netstream: batch mark wants 'B <batchid >= 1> <sendms>', got %q", line)
		}
		*prov = stream.BatchProv{BatchID: id, SendMS: send}
		return FrameBatchMark, "", "", nil
	case 'S':
		// ValidName admits no space, so a third field or an empty one
		// fails as a bad name.
		src, ten, hasTenant := bytes.Cut(line[2:], []byte{' '})
		if !ValidName(string(src)) {
			return 0, "", "", fmt.Errorf("netstream: bad source name %q", src)
		}
		if hasTenant && !ValidName(string(ten)) {
			return 0, "", "", fmt.Errorf("netstream: bad tenant name %q", ten)
		}
		return FrameHello, string(src), string(ten), nil
	default:
		return 0, "", "", fmt.Errorf("netstream: unknown frame type in %q", line)
	}
}

var errLineTooLong = fmt.Errorf("netstream: line exceeds %d bytes", MaxLine)

// uintField parses the field that starts at line[i]: one or more decimal
// digits — no sign, no underscore; leading zeros allowed, as
// strconv.ParseUint(s, 10, 64) has it — ended by a single space, or by
// the end of the line when last is set. next is the start of the
// following field.
func uintField(line []byte, i int, last bool) (v uint64, next int, ok bool) {
	const cutoff = math.MaxUint64/10 + 1 // v*10 overflows from here on
	start := i
	for ; i < len(line) && line[i] != ' '; i++ {
		d := uint64(line[i] - '0')
		if d > 9 || v >= cutoff {
			return 0, 0, false
		}
		v = v*10 + d
		if v < d { // wrapped
			return 0, 0, false
		}
	}
	if i == start || (i == len(line)) != last {
		return 0, 0, false
	}
	return v, i + 1, true
}

// intField is uintField with an optional leading '+' or '-' and the
// int64 range, as strconv.ParseInt(s, 10, 64) has it.
func intField(line []byte, i int, last bool) (v int64, next int, ok bool) {
	neg := false
	if i < len(line) && (line[i] == '+' || line[i] == '-') {
		neg = line[i] == '-'
		i++
	}
	u, next, ok := uintField(line, i, last)
	switch {
	case !ok:
		return 0, 0, false
	case neg && u <= 1<<63:
		return -int64(u), next, true // -(1<<63) wraps onto itself
	case !neg && u < 1<<63:
		return int64(u), next, true
	}
	return 0, 0, false
}
