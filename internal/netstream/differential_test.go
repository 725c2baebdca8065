package netstream

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
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
	// The value kernel's edges: 17, 19 and 20 significant digits; signed
	// and leading zeros; both ends of its exponent range (10^0, 10^-22) and
	// one past the low end; a halfway case Eisel–Lemire declines; and the
	// forms it leaves to strconv.
	"D 1 2 3 4 5 103.45678901234567", "D 1 2 3 4 5 -99.999999999999986",
	"D 1 2 3 4 5 1234567890123456789", "D 1 2 3 4 5 1.234567890123456789",
	"D 1 2 3 4 5 9999999999999999999", "D 1 2 3 4 5 12345678901234567890",
	"D 1 2 3 4 5 1.2345678901234567890", "D 1 2 3 4 5 0.12345678901234567891",
	"D 1 2 3 4 5 -0.0", "D 1 2 3 4 5 0", "D 1 2 3 4 5 000.000", "D 1 2 3 4 5 -00012.50",
	"D 1 2 3 4 5 0.0001234567890123456789", "D 1 2 3 4 5 0.000000000000000000000000000000",
	"D 1 2 3 4 5 0.0000000000000000000001", "D 1 2 3 4 5 0.00000000000000000000001",
	"D 1 2 3 4 5 0.0000012345678901234567", "D 1 2 3 4 5 0.00000012345678901234567",
	"D 1 2 3 4 5 9007199254740993", "D 1 2 3 4 5 -9007199254740993.0",
	"D 1 2 3 4 5 5.", "D 1 2 3 4 5 -.5", "D 1 2 3 4 5 +1.5", "D 1 2 3 4 5 1e5",
	"D 1 2 3 4 5 1.5e-3", "D 1 2 3 4 5 -", "D 1 2 3 4 5 --1", "D 1 2 3 4 5 1.2.3",
	"D 1 2 3 4 5 1..2", "D 1 2 3 4 5 0x1.8p1", "D 1 2 3 4 5 1.5 ", "D 1 2 3 4 5 12345678.9abc",
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
	// A generated sweep of 1 M values: the whole sensorExp stream aqbench
	// sends, then the shortest 'g' form and 'f' at 0–20 decimals of random
	// bit patterns and of random magnitudes between 2^-26 and 2^63.
	for _, line := range bytes.Split(sensorExpWire(200_000, 1), []byte{'\n'}) {
		checkAgainstReference(t, line)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	line := []byte("D 1 2 3 4 5 ")
	for k := 0; k < 800_000; k++ {
		v := math.Float64frombits(rng.Uint64())
		if k%2 == 1 {
			v = math.Ldexp(rng.Float64()-0.5, rng.IntN(90)-25)
		}
		if k%4 < 2 {
			line = strconv.AppendFloat(line[:12], v, 'g', -1, 64)
		} else {
			line = strconv.AppendFloat(line[:12], v, 'f', rng.IntN(21), 64)
		}
		checkAgainstReference(t, line)
	}
}

// FuzzParserDifferential is the open-ended form of the same contract.
func FuzzParserDifferential(f *testing.F) {
	for _, s := range differentialSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) { checkAgainstReference(t, line) })
}

// FuzzValueKernel holds the value kernel to the reference on what an
// encoder writes: a float64 from arbitrary bits in 'g', 'f' or 'e' form at
// prec digits (negative: shortest). Near-halfway 17-digit values, which
// byte mutations of a protocol line rarely reach, are a bit flip away here.
func FuzzValueKernel(f *testing.F) {
	f.Add(math.Float64bits(103.45678901234567), byte('g'), int8(-1))
	f.Add(math.Float64bits(1<<53), byte('f'), int8(0))
	f.Add(math.Float64bits(1e-22), byte('f'), int8(40))
	f.Add(math.Float64bits(0.1), byte('e'), int8(20))
	f.Add(math.Float64bits(math.Copysign(0, -1)), byte('f'), int8(3))
	f.Fuzz(func(t *testing.T, bits uint64, verb byte, prec int8) {
		v := math.Float64frombits(bits)
		checkAgainstReference(t, strconv.AppendFloat([]byte("D 1 2 3 4 5 "), v, "gfe"[verb%3], int(prec), 64))
	})
}

// TestValueKernelEdges pins which path the kernel takes at its edges, which
// the differential tests cannot see (a decline costs time, not bits), and
// that it takes every value of the stream the benchmark sends.
func TestValueKernelEdges(t *testing.T) {
	for s, want := range map[string]bool{
		"103.45678901234567":        true, // 17 digits: Eisel–Lemire
		"1234567890123456789":       true, // 19 digits at 10^0
		"0.0000012345678901234567":  true, // 10^-22, Eisel–Lemire
		"0.0000000000000000000001":  true, // 10^-22, exact
		"-0.0":                      true,
		"0.00000012345678901234567": false, // 10^-23
		"12345678901234567890":      false, // 20 digits
		"9007199254740993":          false, // 2^53+1, halfway: Eisel–Lemire declines
		"5.":                        false,
		".5":                        false,
		"+1.5":                      false,
		"1e5":                       false,
		"NaN":                       false,
		"-":                         false,
	} {
		line := []byte("D 1 2 3 4 5 " + s)
		if _, ok := valueField(line, 12); ok != want {
			t.Errorf("valueField(%q): ok=%v, want %v", s, ok, want)
		}
	}
	for _, line := range bytes.Split(sensorExpWire(200_000, 1), []byte{'\n'}) {
		if !bytes.HasPrefix(line, []byte("D ")) {
			continue
		}
		i := bytes.LastIndexByte(line, ' ') + 1
		if _, ok := valueField(line, i); !ok {
			t.Fatalf("the kernel declines the sensorExp value %q", line[i:])
		}
	}
}

// TestDetailedPowersOfTen recomputes every row of the kernel's table: the
// 128-bit mantissa of 10^e, rounded down, is ⌊2^k / 10^-e⌋ for the k that
// gives it 128 bits.
func TestDetailedPowersOfTen(t *testing.T) {
	low64 := new(big.Int).SetUint64(math.MaxUint64)
	for e := -22; e <= 0; e++ {
		den := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(-e)), nil)
		q := new(big.Int).Lsh(big.NewInt(1), uint(127+den.BitLen()))
		q.Quo(q, den)
		if q.BitLen() > 128 { // 10^0 is a power of two
			q.Rsh(q, 1)
		}
		want := [2]uint64{new(big.Int).And(q, low64).Uint64(), new(big.Int).Rsh(q, 64).Uint64()}
		if got := detailedPowersOfTen[e+22]; got != want {
			t.Errorf("1e%d: table {%#x, %#x}, math/big {%#x, %#x}", e, got[0], got[1], want[0], want[1])
		}
	}
}

// refUintField is uintField before the digit-block scan, kept verbatim as
// the reference the block scan is held to.
func refUintField(line []byte, i int, last bool) (v uint64, next int, ok bool) {
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

// TestUintFieldMatchesScalarLoop compares the block scan with the scalar
// loop on random digit strings of 0–24 bytes, each also with a space and
// with a non-digit put at every position in turn, from every offset, last
// or not.
func TestUintFieldMatchesScalarLoop(t *testing.T) {
	check := func(line []byte) {
		for i := 0; i <= len(line); i++ {
			for _, last := range []bool{false, true} {
				v, next, ok := uintField(line, i, last)
				rv, rnext, rok := refUintField(line, i, last)
				if v != rv || next != rnext || ok != rok {
					t.Fatalf("uintField(%q, %d, %v) = %d, %d, %v; scalar loop %d, %d, %v",
						line, i, last, v, next, ok, rv, rnext, rok)
				}
			}
		}
	}
	for _, s := range []string{"18446744073709551615", "18446744073709551616", "99999999999999999999",
		"0000000018446744073709551615", "1844674407370955161", "12345678 12345678"} {
		check([]byte(s))
	}
	rng := rand.New(rand.NewPCG(3, 4))
	nonDigits := []byte{'/', ':', '-', '+', '.', 'e', '_', 0, 0x80, 0xB9, '0' + 16}
	for n := 0; n <= 24; n++ {
		for rep := 0; rep < 40; rep++ {
			digits := make([]byte, n)
			for k := range digits {
				digits[k] = '0' + byte(rng.IntN(10))
			}
			check(digits)
			for p := 0; p < n; p++ {
				for _, c := range []byte{' ', nonDigits[rng.IntN(len(nonDigits))]} {
					line := append([]byte(nil), digits...)
					line[p] = c
					check(line)
				}
			}
		}
	}
}
