package window

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// orderStatValues is the benchmark's payload, drawn once.
var orderStatValues = func() []float64 {
	rng := rand.New(rand.NewSource(1))
	vs := make([]float64, 1<<16)
	for i := range vs {
		vs[i] = rng.ExpFloat64()
	}
	return vs
}()

// BenchmarkOrderStatEmit times one slide of a p95 operator in steady state —
// perSlide in-order inserts and the emission they trigger — over window
// shapes from tumbling to a thousand panes. EXPERIMENTS.md R22 holds the
// grid for this commit and its parent.
func BenchmarkOrderStatEmit(b *testing.B) {
	const slide = 1000
	for _, ratio := range []int{1, 10, 60, 1000} {
		for _, perSlide := range []int{1, 100, 10_000} {
			b.Run(fmt.Sprintf("size_over_slide=%d/per_slide=%d", ratio, perSlide), func(b *testing.B) {
				if ratio*perSlide > 1_000_000 {
					b.Skip("a window of 10 M values is ~0.6 GB of tree: too much for a shared host")
				}
				op := NewOp(Spec{Size: stream.Time(ratio * slide), Slide: slide}, Quantile(0.95), DropLate, 0)
				var seq uint64
				out := make([]Result, 0, 4)
				step := func(s int) {
					for j := 0; j < perSlide; j++ {
						seq++
						ts := stream.Time(s*slide + j*slide/perSlide)
						out = op.Observe(stream.Tuple{Seq: seq, TS: ts, Value: orderStatValues[seq&(1<<16-1)]}, ts, out[:0])
					}
				}
				warm := ratio + 2
				for s := 0; s < warm; s++ {
					step(s)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step(warm + i)
				}
			})
		}
	}
}
