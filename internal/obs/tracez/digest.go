package tracez

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Digest hashes a trace into a stable hex string: every event's fields
// in order, fixed little-endian encoding. Two runs of the synchronous
// executor over the same transcript produce identical digests — the
// deterministic simulation harness asserts exactly that (same seed ⇒
// same trace). Events record stream-time positions, never wall time, so
// the digest is replay-stable by construction.
func Digest(events []Event) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, ev := range events {
		u64(ev.Seq)
		u64(uint64(ev.At))
		u64(uint64(ev.Kind)<<32 | uint64(ev.Stage)<<16)
		u64(uint64(ev.Win))
		u64(ev.Key)
		u64(uint64(ev.N))
		u64(uint64(ev.K))
		u64(math.Float64bits(ev.V))
		u64(uint64(len(ev.Msg)))
		h.Write([]byte(ev.Msg))
	}
	return hex.EncodeToString(h.Sum(nil))
}
