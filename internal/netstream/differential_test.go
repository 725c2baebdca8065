package netstream

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/stream"
)

// The reference grammar: the fields-split + strconv parser the one-pass
// parseFrame replaced, moved here verbatim (names prefixed ref). The
// differential tests below hold parseFrame to it: the same accept/reject
// decision and a bit-identical frame for every input. There are no
// deliberate divergences; error texts differ and are not compared.

// refFields splits line on single spaces into at most max fields, without
// allocating a slice header per call site surprise: it reuses the given
// scratch. Empty fields (double spaces) are a protocol error, signalled
// by returning ok=false.
func refFields(line []byte, scratch [][]byte) ([][]byte, bool) {
	out := scratch[:0]
	start := 0
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == ' ' {
			if i == start {
				return nil, false // empty field: leading/trailing/double space
			}
			out = append(out, line[start:i])
			start = i + 1
		}
	}
	return out, true
}

// refParseLine is ParseLine as it stood before the one-pass parser.
func refParseLine(line []byte) (Frame, error) {
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	if len(line) > MaxLine {
		return Frame{}, fmt.Errorf("netstream: line exceeds %d bytes", MaxLine)
	}
	if len(line) == 0 || line[0] == '#' {
		return Frame{Kind: FrameNone}, nil
	}
	var scratch [8][]byte
	fs, ok := refFields(line, scratch[:])
	if !ok {
		return Frame{}, fmt.Errorf("netstream: malformed frame %q: empty field", line)
	}
	switch string(fs[0]) {
	case "S":
		if len(fs) != 2 && len(fs) != 3 {
			return Frame{}, fmt.Errorf("netstream: hello wants 'S <source> [tenant]', got %d fields", len(fs))
		}
		f := Frame{Kind: FrameHello, Source: string(fs[1])}
		if !ValidName(f.Source) {
			return Frame{}, fmt.Errorf("netstream: bad source name %q", f.Source)
		}
		if len(fs) == 3 {
			f.Tenant = string(fs[2])
			if !ValidName(f.Tenant) {
				return Frame{}, fmt.Errorf("netstream: bad tenant name %q", f.Tenant)
			}
		}
		return f, nil
	case "H":
		if len(fs) != 2 {
			return Frame{}, fmt.Errorf("netstream: heartbeat wants 'H <watermark>', got %d fields", len(fs))
		}
		w, err := strconv.ParseInt(string(fs[1]), 10, 64)
		if err != nil {
			return Frame{}, fmt.Errorf("netstream: bad watermark %q", fs[1])
		}
		return Frame{Kind: FrameHeartbeat, Item: stream.HeartbeatItem(stream.Time(w))}, nil
	case "B":
		if len(fs) != 3 {
			return Frame{}, fmt.Errorf("netstream: batch mark wants 'B <batchid> <sendms>', got %d fields", len(fs))
		}
		id, err := strconv.ParseUint(string(fs[1]), 10, 64)
		if err != nil {
			return Frame{}, fmt.Errorf("netstream: bad batch id %q", fs[1])
		}
		if id == 0 {
			return Frame{}, fmt.Errorf("netstream: batch id must be >= 1")
		}
		send, err := strconv.ParseInt(string(fs[2]), 10, 64)
		if err != nil {
			return Frame{}, fmt.Errorf("netstream: bad send time %q", fs[2])
		}
		return Frame{Kind: FrameBatchMark, Prov: stream.BatchProv{BatchID: id, SendMS: send}}, nil
	case "D":
		if len(fs) != 7 {
			return Frame{}, fmt.Errorf("netstream: data wants 'D <ts> <arrival> <seq> <key> <src> <value>', got %d fields", len(fs))
		}
		ts, err := strconv.ParseInt(string(fs[1]), 10, 64)
		if err != nil {
			return Frame{}, fmt.Errorf("netstream: bad ts %q", fs[1])
		}
		ar, err := strconv.ParseInt(string(fs[2]), 10, 64)
		if err != nil {
			return Frame{}, fmt.Errorf("netstream: bad arrival %q", fs[2])
		}
		seq, err := strconv.ParseUint(string(fs[3]), 10, 64)
		if err != nil {
			return Frame{}, fmt.Errorf("netstream: bad seq %q", fs[3])
		}
		key, err := strconv.ParseUint(string(fs[4]), 10, 64)
		if err != nil {
			return Frame{}, fmt.Errorf("netstream: bad key %q", fs[4])
		}
		src, err := strconv.ParseUint(string(fs[5]), 10, 8)
		if err != nil {
			return Frame{}, fmt.Errorf("netstream: bad src %q", fs[5])
		}
		val, err := strconv.ParseFloat(string(fs[6]), 64)
		if err != nil {
			return Frame{}, fmt.Errorf("netstream: bad value %q", fs[6])
		}
		return Frame{Kind: FrameData, Item: stream.DataItem(stream.Tuple{
			TS: stream.Time(ts), Arrival: stream.Time(ar), Seq: seq,
			Key: key, Src: uint8(src), Value: val,
		})}, nil
	default:
		return Frame{}, fmt.Errorf("netstream: unknown frame type %q", fs[0])
	}
}

// sameFrame compares two frames bit for bit (NaN payloads included).
func sameFrame(a, b Frame) bool {
	av, bv := a.Item.Tuple.Value, b.Item.Tuple.Value
	a.Item.Tuple.Value, b.Item.Tuple.Value = 0, 0
	return a == b && math.Float64bits(av) == math.Float64bits(bv)
}

func checkAgainstReference(t *testing.T, line []byte) {
	t.Helper()
	want, wantErr := refParseLine(line)
	got, gotErr := ParseLine(line)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%q: reference err=%v, parser err=%v", line, wantErr, gotErr)
	}
	if !sameFrame(got, want) {
		t.Fatalf("%q: parser %+v, reference %+v", line, got, want)
	}
}

var differentialSeeds = []string{
	"D 1 2 3 4 5 NaN", "D 1 2 3 4 5 -0", "D 1 2 3 4 5 1e308", "D 1 2 3 4 5 1e309",
	"D 1 2 3 4 5 0.30000000000000004", "D 1 2 3 4 5 12345678901234567",
	"D 1 2 3 4 5 +Inf", "D 1 2 3 4 5 0x1p-2", "D 1 2 3 4 5 1_0", "D 1 2 3 4 5 .5",
	"D 9223372036854775807 -9223372036854775808 18446744073709551615 0 255 1",
	"D 9223372036854775808 2 3 4 5 6", "D -9223372036854775809 2 3 4 5 6",
	"D 1 2 18446744073709551616 4 5 6", "D 1 2 99999999999999999999 4 5 6",
	"D 1 2 3 4 256 6", "D 1 2 3 4 255 6", "D +5 -0 3 4 5 6", "D 1 2 +3 4 5 6",
	"D 1 2 -3 4 5 6", "D 1 2 3 4 +5 6", "D 0001 002 0000000000000000000000003 04 005 6",
	"D 1 2 3 4 5 6\r", "D 1 2 3 4 5 6\r\r", "D 1  2 3 4 5 6", "D 1 2 3 4 5 ",
	"D 1 2 3 4 5", "D 1 2 3 4 5 6 ", "D 1 2 3 4 5 6 7", " D 1 2 3 4 5 6", "D", "D ",
	"D + 2 3 4 5 6", "D - 2 3 4 5 6", "D 1_0 2 3 4 5 6", "D 1\t2 3 4 5 6",
	"H 123456", "H -1", "H +1", "H", "H ", "H 1 2", "H 1 ", "H\r", "Hx 1",
	"B 1 1754640000000", "B 0 5", "B 1", "B 1 ", "B -1 5", "B 1 -5", "B 1 5 6",
	"B 18446744073709551615 9223372036854775807",
	"S sensors acme", "S s1", "S", "S ", "S a ", "S a b c", "S a  b", "S bad/name", "Sx a",
	"", "\r", "#", "# D 1 2", "X what", "d 1 2 3 4 5 6",
}

// TestParserMatchesReference runs the seeds — so a plain `go test` holds
// the grammar even where no fuzzing engine runs — plus the length edges.
func TestParserMatchesReference(t *testing.T) {
	for _, s := range differentialSeeds {
		checkAgainstReference(t, []byte(s))
	}
	pad := func(n int) []byte { // a valid data line padded with leading zeros to n bytes
		line := []byte("D ")
		for len(line) < n-len("1 2 3 4 5 6") {
			line = append(line, '0')
		}
		return append(line, "1 2 3 4 5 6"...)
	}
	for _, n := range []int{MaxLine - 1, MaxLine, MaxLine + 1} {
		checkAgainstReference(t, pad(n))
		checkAgainstReference(t, append(pad(n), '\r'))
	}
	if _, err := ParseLine(pad(MaxLine)); err != nil {
		t.Fatalf("a %d-byte line is legal: %v", MaxLine, err)
	}
	if _, err := ParseLine(pad(MaxLine + 1)); err == nil {
		t.Fatalf("a %d-byte line must be rejected", MaxLine+1)
	}
}

// FuzzParserDifferential is the open-ended form of the same contract.
func FuzzParserDifferential(f *testing.F) {
	for _, s := range differentialSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) { checkAgainstReference(t, line) })
}
