package buffer

import (
	"testing"

	"repro/internal/stream"
)

// FuzzKSlackInvariants drives a K-slack buffer with an arbitrary
// byte-derived arrival sequence and checks its core invariants:
// conservation, no tuple held past its release point, and sorted output
// among non-stragglers.
func FuzzKSlackInvariants(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 4, 5}, uint16(10))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{9, 9, 9, 9}, uint16(1000))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint16) {
		k := stream.Time(kRaw % 200)
		h := NewKSlack(k)
		var out []stream.Tuple
		arrival := stream.Time(0)
		ts := stream.Time(0)
		inserted := 0
		for i, b := range data {
			arrival += stream.Time(b%16) + 1
			// Event time wobbles around the arrival time.
			ts = arrival - stream.Time(b%64)
			if ts < 0 {
				ts = 0
			}
			tuple := stream.Tuple{TS: ts, Arrival: arrival, Seq: uint64(i)}
			before := len(out)
			out = h.Insert(stream.DataItem(tuple), out)
			inserted++
			// Invariant: everything released so far has passed its
			// release point (TS <= clock - K) -- clock is h.Clock().
			for _, r := range out[before:] {
				if r.TS > h.Clock()-k && h.Clock() >= k {
					t.Fatalf("released tuple ts=%d before its release point (clock=%d K=%d)",
						r.TS, h.Clock(), k)
				}
			}
		}
		out = h.Flush(out)
		if len(out) != inserted {
			t.Fatalf("conservation violated: %d in, %d out", inserted, len(out))
		}
		seen := make(map[uint64]bool, len(out))
		for _, r := range out {
			if seen[r.Seq] {
				t.Fatalf("duplicate seq %d", r.Seq)
			}
			seen[r.Seq] = true
		}
		if h.Len() != 0 {
			t.Fatalf("buffer not empty after flush: %d", h.Len())
		}
	})
}

// FuzzPercentileHandler checks the adaptive-percentile handler never
// panics, conserves tuples, and keeps K non-negative on arbitrary inputs.
func FuzzPercentileHandler(f *testing.F) {
	f.Add([]byte{5, 100, 0, 7, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewPercentile(0.9, 8)
		var out []stream.Tuple
		arrival := stream.Time(0)
		for i, b := range data {
			arrival += stream.Time(b%8) + 1
			ts := arrival - stream.Time(b)
			if ts < 0 {
				ts = 0
			}
			out = h.Insert(stream.DataItem(stream.Tuple{TS: ts, Arrival: arrival, Seq: uint64(i)}), out)
			if h.K() < 0 {
				t.Fatalf("negative K: %d", h.K())
			}
		}
		out = h.Flush(out)
		if len(out) != len(data) {
			t.Fatalf("conservation violated: %d in, %d out", len(data), len(out))
		}
	})
}

// FuzzTupleRingOrder drives the ordered ring with an arbitrary interleaving
// of pushes and pops and holds it to a stable-sorted reference after every
// step: the live region is the reference's, in (TS, Seq) order with equal
// keys in push order, whatever depth a push lands at — the end, a few
// places down (the walk), far down (the search), below everything live —
// and whichever compaction pop has just run. Timestamps come from a narrow
// range, so equal-TS ties are settled by Seq in every run, and Seq repeats
// now and then, so fully equal keys are too.
func FuzzTupleRingOrder(f *testing.F) {
	f.Add([]byte{10, 10, 9, 200, 11, 0, 255, 8, 8}, uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 0}, uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, popEvery uint8) {
		var h tupleRing
		var ref []stream.Tuple // sorted by (TS, Seq), equal keys in push order
		check := func(when string) {
			t.Helper()
			if h.len() != len(ref) {
				t.Fatalf("%s: %d live, want %d", when, h.len(), len(ref))
			}
			for i, want := range ref {
				if got := h.buf[h.head+i]; got != want {
					t.Fatalf("%s: live[%d] = %v, want %v", when, i, got, want)
				}
			}
		}
		// A long in-order prefix first, so that the interesting pushes land
		// in a ring deeper than the walk and pop's compaction has run.
		for i := 0; i < 100; i++ {
			tu := stream.Tuple{TS: stream.Time(i / 2), Seq: uint64(i), Value: float64(i)}
			h.push(tu)
			ref = append(ref, tu)
		}
		for i := 0; i < 70; i++ {
			if got := h.pop(); got != ref[0] {
				t.Fatalf("pop %d: %v, want %v", i, got, ref[0])
			}
			ref = ref[1:]
		}
		check("after the prefix")
		for i, b := range data {
			tu := stream.Tuple{TS: stream.Time(30 + b%40), Seq: uint64(200 + i), Value: float64(i)}
			if b >= 240 {
				tu.Seq = uint64(200 + i/2) // an earlier tuple's Seq, maybe its whole key
			}
			if b%2 == 0 {
				h.push(tu)
			} else {
				h.insert(&tu)
			}
			at := len(ref)
			for at > 0 && tupleLess(tu, ref[at-1]) {
				at--
			}
			ref = append(ref, stream.Tuple{})
			copy(ref[at+1:], ref[at:])
			ref[at] = tu
			check("after a push")
			if popEvery > 0 && i%int(popEvery) == 0 && len(ref) > 0 {
				if got := h.pop(); got != ref[0] {
					t.Fatalf("pop after push %d: %v, want %v", i, got, ref[0])
				}
				ref = ref[1:]
				check("after a pop")
			}
		}
	})
}
