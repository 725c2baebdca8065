package window

import (
	"fmt"
	"testing"

	"repro/internal/stream"
)

// BenchmarkRefineLateHorizon times a RefineLate operator's per-tuple Observe
// in steady state — the call a grouped query's per-key operator gets — at a
// refinement horizon of 1 s and of 600 s, over a stream of 100 tuples/s one
// percent of which arrive half a second late and refine their windows —
// under either horizon, so that the two do the same work. The emitted
// windows are kept in one ring in window order, so expiring them is a look
// at its oldest: the two horizons must cost the same per tuple, within 10 %
// (EXPERIMENTS.md R32).
func BenchmarkRefineLateHorizon(b *testing.B) {
	const n, every = 1 << 17, 10 // tuples per op (655 s of warm-up, 655 s timed), event-time spacing (ms)
	ts := make([]stream.Tuple, n)
	for i := range ts {
		at := stream.Time(i * every)
		if i%100 == 99 {
			at -= stream.Second / 2
		}
		ts[i] = stream.Tuple{TS: at, Seq: uint64(i), Value: orderStatValues[i&(1<<16-1)]}
	}
	spec := Spec{Size: 10 * stream.Second, Slide: stream.Second}
	for _, horizon := range []stream.Time{stream.Second, 600 * stream.Second} {
		b.Run(fmt.Sprintf("refine_for=%ds", horizon/stream.Second), func(b *testing.B) {
			var op *Op
			out := make([]Result, 0, 16)
			for i := 0; i < b.N; i++ {
				if i%(n/2) == 0 {
					b.StopTimer()
					op = NewOp(spec, Sum(), RefineLate, horizon)
					// Warm up past the horizon, so that the ring is full.
					for _, t := range ts[:n/2] {
						out = op.Observe(t, t.TS, out[:0])
					}
					b.StartTimer()
				}
				t := ts[n/2+i%(n/2)]
				out = op.Observe(t, t.TS, out[:0])
			}
		})
	}
}
