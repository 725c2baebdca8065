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
// (int64), seq and key are uint64, src is uint8, value is a float64 in
// its shortest %g form that parses back to the same number
// (strconv.FormatFloat(v, 'g', -1, 64)); a NaN decodes as Go's canonical
// NaN, so a NaN's payload bits do not survive the wire.
// The B frame is a v2 extension: v1 producers simply never send it and
// v1 consumers never see it (the decoder swallows it), so the two
// protocol generations interoperate both ways. batchid is a uint64 ≥ 1;
// a replayed batch (reconnect resend) reuses its original id, which is
// how replay spans become visible server-side. docs/API.md has the full
// grammar and a walkthrough.
package netstream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
// with strconv's base-10 grammar and range checks (intField, uintField).
// The value goes through valueField, and whatever that declines through
// strconv.ParseFloat, which alone decides what else is a valid value.
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
		val, ok := valueField(line, i)
		if !ok {
			val, err = strconv.ParseFloat(string(line[i:]), 64)
		}
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
	// The first 16 digits a block at a time: below 10^16 nothing overflows,
	// and the checked loop takes the rest and gives the verdict.
	v, i = digitRun(line, i, 0, 16)
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

// digitRun appends to v the decimal digits that start at line[i], up to
// eight per step, and returns v and the index of the first byte it did not
// take. It stops at the first non-digit or once it has taken max or more
// digits, and lets v wrap: callers bound what they take. A step is one
// 8-byte load — at the end of the line, of the line's last eight bytes,
// shifted so the bytes past the end read as zeros — a mask test that finds
// how many of the eight are digits, and three multiply-shift folds (Lemire,
// arXiv 2101.11408). A line shorter than eight bytes is left whole to the
// callers: uintField's scalar loop reads it, valueField declines it.
func digitRun(line []byte, i int, v uint64, max int) (uint64, int) {
	for start := i; i-start < max; {
		var w uint64
		switch {
		case len(line)-i >= 8:
			w = binary.LittleEndian.Uint64(line[i:])
		case len(line) >= 8:
			w = binary.LittleEndian.Uint64(line[len(line)-8:]) >> (8 * (8 - (len(line) - i)))
		default:
			return v, i
		}
		// A byte is a digit when its high nibble is 3 and its low nibble
		// plus 6 does not carry out of it; every other byte keeps a
		// high-nibble bit set, so the lowest set bit is the first non-digit.
		bad := (w&0xF0F0F0F0F0F0F0F0 ^ 0x3030303030303030) | (w&0x0F0F0F0F0F0F0F0F+0x0606060606060606)&0xF0F0F0F0F0F0F0F0
		n := bits.TrailingZeros64(bad) >> 3
		if n == 0 {
			return v, i
		}
		// The n digits become the high bytes, the zeros below them leading
		// zeros; then fold digit pairs, pairs of pairs and the two halves.
		w = (w & 0x0F0F0F0F0F0F0F0F) << (64 - 8*n)
		w = w * (10<<8 + 1) >> 8 & 0x00FF00FF00FF00FF
		w = w * (100<<16 + 1) >> 16 & 0x0000FFFF0000FFFF
		v = v*pow10[n] + w*(10000<<32+1)>>32
		i += n
		if n < 8 {
			break
		}
	}
	return v, i
}

var pow10 = [9]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// valueField is the value's kernel. When the rest of line from i is
// -?[0-9]+(\.[0-9]+)? with at most 19 significant digits and at most 22
// after the point, it returns the value strconv.ParseFloat would: through
// strconv's exact path when the digits read as an integer below 2^52 —
// float64 division by an exact power of ten rounds once — and otherwise
// through eiselLemire64. ok is false for everything else (an exponent,
// NaN and Inf, hex, '_', a leading '+', ".5" and "5.", more digits, a
// smaller exponent, and whatever Eisel–Lemire cannot round), and
// parseFrame leaves that to strconv.ParseFloat.
func valueField(line []byte, i int) (f float64, ok bool) {
	neg := i < len(line) && line[i] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(line) && line[i] == '0' {
		i++ // leading zeros are not significant
	}
	// Twenty digits are one too many: a longer run need not be read.
	man, j := digitRun(line, i, 0, 20)
	if j == start {
		return 0, false // no integer digit
	}
	sig, exp10 := j-i, 0
	if j < len(line) {
		if line[j] != '.' {
			return 0, false
		}
		dot := j
		i = j + 1
		for man == 0 && i < len(line) && line[i] == '0' {
			i++ // nor are the zeros that open the fraction of a value below 1
		}
		man, j = digitRun(line, i, man, 20)
		if j == dot+1 || j != len(line) {
			return 0, false // no fraction digit, or something after them
		}
		sig += j - i
		exp10 = dot + 1 - j
	}
	if sig > 19 || exp10 < -22 {
		return 0, false
	}
	if man < 1<<52 {
		f = float64(man)
		if neg {
			f = -f
		}
		return f / float64pow10[-exp10], true
	}
	return eiselLemire64(man, exp10, neg)
}

var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// eiselLemire64 is strconv's eiselLemire64 for what valueField hands it:
// 2^52 ≤ man < 10^19 and -22 ≤ exp10 ≤ 0. Those bounds keep the result a
// normal float64, so strconv's range and subnormal exits are left out; ok
// is false where 128 bits of the power of ten cannot decide the rounding.
// The comments name the steps of Nigel Tao's write-up of the algorithm.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	pow := detailedPowersOfTen[exp10+22]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// detailedPowersOfTen holds 10^-22 … 10^0, the powers valueField can ask
// for, as strconv's table of the same name does: {low, high} halves of the
// 128-bit mantissa, normalized so the high bit is set and rounded down.
// TestDetailedPowersOfTen recomputes every row with math/big.
var detailedPowersOfTen = [23][2]uint64{
	{0x5324C68B12DD6338, 0xF1C90080BAF72CB1}, // 1e-22
	{0xD3F6FC16EBCA5E03, 0x971DA05074DA7BEE}, // 1e-21
	{0x88F4BB1CA6BCF584, 0xBCE5086492111AEA}, // 1e-20
	{0x2B31E9E3D06C32E5, 0xEC1E4A7DB69561A5}, // 1e-19
	{0x3AFF322E62439FCF, 0x9392EE8E921D5D07}, // 1e-18
	{0x09BEFEB9FAD487C2, 0xB877AA3236A4B449}, // 1e-17
	{0x4C2EBE687989A9B3, 0xE69594BEC44DE15B}, // 1e-16
	{0x0F9D37014BF60A10, 0x901D7CF73AB0ACD9}, // 1e-15
	{0x538484C19EF38C94, 0xB424DC35095CD80F}, // 1e-14
	{0x2865A5F206B06FB9, 0xE12E13424BB40E13}, // 1e-13
	{0xF93F87B7442E45D3, 0x8CBCCC096F5088CB}, // 1e-12
	{0xF78F69A51539D748, 0xAFEBFF0BCB24AAFE}, // 1e-11
	{0xB573440E5A884D1B, 0xDBE6FECEBDEDD5BE}, // 1e-10
	{0x31680A88F8953030, 0x89705F4136B4A597}, // 1e-9
	{0xFDC20D2B36BA7C3D, 0xABCC77118461CEFC}, // 1e-8
	{0x3D32907604691B4C, 0xD6BF94D5E57A42BC}, // 1e-7
	{0xA63F9A49C2C1B10F, 0x8637BD05AF6C69B5}, // 1e-6
	{0x0FCF80DC33721D53, 0xA7C5AC471B478423}, // 1e-5
	{0xD3C36113404EA4A8, 0xD1B71758E219652B}, // 1e-4
	{0x645A1CAC083126E9, 0x83126E978D4FDF3B}, // 1e-3
	{0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A}, // 1e-2
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x0000000000000000, 0x8000000000000000}, // 1e0
}
