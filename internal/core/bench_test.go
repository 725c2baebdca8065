package core

import (
	"testing"

	"repro/internal/window"
)

// BenchmarkLossCurve times one loss-curve refresh in adaptive_drift's
// steady state: a full 4 096-value reservoir, 1 000-tuple windows, 16
// trials. The drift stream's values are positive, so sum times the closed
// form (the sign check over the reservoir); max and p95 time the sweep.
func BenchmarkLossCurve(b *testing.B) {
	for _, tc := range []struct {
		name string
		agg  window.Factory
	}{
		{"sum", window.Sum()},
		{"max", window.Max()},
		{"p95", window.Quantile(0.95)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := NewEstimator(pinnedSpec(), tc.agg, EstimatorConfig{Seed: 1})
			for _, tp := range driftTuples(8192, 3) {
				e.ObserveTuple(0, tp.Value)
			}
			e.ObserveWindowCount(1000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.LossCurve()
			}
		})
	}
}
