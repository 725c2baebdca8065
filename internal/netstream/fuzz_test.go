package netstream

import (
	"bytes"
	"testing"
)

// FuzzLineProtocol asserts the frame decoder's two load-bearing
// properties: it never panics on arbitrary input, and every line it
// accepts survives a re-encode/re-parse round trip unchanged — so the
// wire format cannot silently lose or alter a frame the decoder let
// through.
func FuzzLineProtocol(f *testing.F) {
	f.Add([]byte("S sensors acme"))
	f.Add([]byte("S s1"))
	f.Add([]byte("D 10 25 0 3 1 42.5"))
	f.Add([]byte("D -5 3 18446744073709551615 7 255 -1e300"))
	f.Add([]byte("H 123456"))
	f.Add([]byte("# comment"))
	f.Add([]byte(""))
	f.Add([]byte("D 1 2 3 4 5 NaN"))
	f.Add([]byte("X what"))
	f.Add([]byte("B 1 0")) // found by the fuzzer: marks were re-encoded as data
	f.Fuzz(func(t *testing.T, line []byte) {
		fr, err := ParseLine(line) // must not panic
		if err != nil {
			return
		}
		var enc []byte
		switch fr.Kind {
		case FrameNone:
			return // comments/blanks have no canonical encoding
		case FrameHello:
			enc = AppendHello(nil, fr.Source, fr.Tenant)
		case FrameBatchMark:
			enc = AppendBatchMark(nil, fr.Prov)
		default:
			enc = AppendItem(nil, fr.Item)
		}
		if len(enc) == 0 || enc[len(enc)-1] != '\n' {
			t.Fatalf("encoder emitted unterminated frame %q", enc)
		}
		fr2, err := ParseLine(bytes.TrimSuffix(enc, []byte("\n")))
		if err != nil {
			t.Fatalf("re-parse of encoded frame %q failed: %v", enc, err)
		}
		// NaN payloads compare unequal by definition; compare their wire
		// form instead (the encoder is deterministic).
		if fr.Kind == FrameData && fr.Item.Tuple.Value != fr.Item.Tuple.Value {
			fr2.Item.Tuple.Value, fr.Item.Tuple.Value = 0, 0
		}
		if fr2 != fr {
			t.Fatalf("round trip changed frame: %+v -> %q -> %+v", fr, enc, fr2)
		}
	})
}
