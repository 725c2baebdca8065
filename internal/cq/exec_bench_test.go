package cq

import (
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/obs/tracez"
	"repro/internal/stream"
	"repro/internal/window"
)

// BenchmarkExecStepServerShaped times Exec.Step the way cmd/aqserver's
// runners call it: the aqbench query shapes behind fixed K-slacks, a tracer
// attached, the report discarded, whole ring batches of the size the paced
// server sees, exponential 100 ms delays (aqbench's sensorExp). One
// iteration is one batch stepped through every query of the sub-benchmark;
// the metric that matters is ns/query-tuple, time inside Step only. A CPU
// profile of the paced server is phase-locked to its 2 ms tick and collects
// next to nothing — this is the profile to read instead (docs/TESTING.md).
func BenchmarkExecStepServerShaped(b *testing.B) {
	type shape struct {
		spec window.Spec
		agg  window.Factory
		k    stream.Time
	}
	sec := stream.Second
	for _, bc := range []struct {
		name   string
		batch  int
		shapes []shape
	}{
		{"fanout4", 160, []shape{
			{window.Spec{Size: sec, Slide: sec}, window.Sum(), 500},
			{window.Spec{Size: 60 * sec, Slide: sec}, window.Max(), 500},
			{window.Spec{Size: 10 * sec, Slide: sec}, window.Quantile(0.95), 500},
			{window.Spec{Size: 10 * sec, Slide: sec}, window.Count(), 2000},
		}},
		{"fixedk", 1200, []shape{
			{window.Spec{Size: 10 * sec, Slide: sec}, window.Sum(), 500},
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := gen.Sensor(240_000, 11)
			cfg.Delays = delay.Exponential{MeanD: 100}
			pool := stream.Collect(cfg.Source())
			span := stream.Time(len(pool)) * cfg.Interval

			results := 0
			execs := make([]*Exec, len(bc.shapes))
			for i, s := range bc.shapes {
				q := New(nil).Handle(buffer.NewKSlack(s.k)).Window(s.spec, s.agg).
					Trace(tracez.New(tracez.NewRecorder(1<<12), "q")).DiscardReport()
				x, err := NewExec(q, func(window.Result) { results++ })
				if err != nil {
					b.Fatal(err)
				}
				execs[i] = x
			}

			// The pool is replayed end to end, each pass shifted one span on
			// in event time, arrival time and sequence, so the stream never
			// repeats. The shift is done outside the timed region.
			batch := make([]stream.Item, bc.batch)
			var inStep time.Duration
			off, pass := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if off+bc.batch > len(pool) {
					off, pass = 0, pass+1
				}
				shift := stream.Time(pass) * span
				for j, it := range pool[off : off+bc.batch] {
					it.Tuple.TS += shift
					it.Tuple.Arrival += shift
					it.Tuple.Seq += uint64(pass * len(pool))
					batch[j] = it
				}
				off += bc.batch
				start := time.Now()
				for _, x := range execs {
					if err := x.Step(batch); err != nil {
						b.Fatal(err)
					}
				}
				inStep += time.Since(start)
			}
			b.StopTimer()
			if results == 0 && b.N*bc.batch > 1000 {
				b.Fatal("no window ever closed; the benchmark measures nothing")
			}
			b.ReportMetric(float64(inStep.Nanoseconds())/float64(b.N*bc.batch*len(execs)), "ns/query-tuple")
		})
	}
}
