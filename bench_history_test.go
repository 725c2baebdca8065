package repro

// Observability-plane benchmarks (`go test -bench
// 'BenchmarkHistoryOverhead|BenchmarkWireProvOverhead' -run '^$' .`): the windowed metric history sampler and the
// wire-provenance mark on the ingest hot path. Both ride alongside the
// pipeline rather than inside it — the sampler reads instruments the
// hot path already updates, and the provenance mark is a 16-byte struct
// copied per ring batch — so the acceptance bar is tight: ≤2% combined
// throughput loss (EXPERIMENTS.md R21).

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/fanout"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/window"
)

// BenchmarkHistoryOverhead measures the background history sampler's
// cost on a fully instrumented concurrent pipeline: "off" runs the
// instrumented query alone (the BenchmarkTelemetryOverhead "on"
// configuration), "on" adds an obs.History sampling every registered
// series at a 10ms step — 100× harder than the 1s production default,
// so the measured delta is a conservative bound. Retention is kept
// short so the benchmark prices steady-state sampling, not the one-time
// ring-buffer allocation a production server pays once at startup.
func BenchmarkHistoryOverhead(b *testing.B) {
	tuples := benchTuples(100000)
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	run := func(b *testing.B, sampled bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reg := obs.NewRegistry()
			h := core.NewAQKSlack(core.Config{Theta: 0.01, Spec: spec, Agg: window.Sum()})
			h.Instrument(core.NewTelemetry(reg, "bench"))
			q := cq.New(stream.FromTuples(tuples)).Handle(h).Window(spec, window.Sum()).
				Instrument(cq.NewTelemetry(reg, "bench", spec))
			var hist *obs.History
			if sampled {
				hist = obs.NewHistory(reg, obs.HistoryOptions{Step: 10 * time.Millisecond, Retention: time.Second})
				hist.Start()
			}
			if _, err := q.RunConcurrent(context.Background(), nil); err != nil {
				b.Fatal(err)
			}
			if hist != nil {
				hist.Stop()
			}
		}
		b.ReportMetric(float64(len(tuples)*b.N)/b.Elapsed().Seconds(), "tuples/s")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkWireProvOverhead measures the wire-provenance mark's cost on
// the broadcast-ring ingest path — the path every network batch takes
// from listener to query: "off" publishes and drains plain batches,
// "on" carries a valid BatchProv mark through PublishProv/NextBatchProv
// the way the netstream listener stamps each framed batch.
func BenchmarkWireProvOverhead(b *testing.B) {
	const batches, batchSize = 4096, 256
	items := make([]stream.Item, batchSize)
	for i := range items {
		items[i] = stream.Item{Tuple: stream.Tuple{TS: stream.Time(i), Value: float64(i)}}
	}
	run := func(b *testing.B, prov bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ring := fanout.New(fanout.Options{Ring: 64})
			sub := ring.Subscribe("bench", fanout.Block)
			done := make(chan error, 1)
			go func() {
				ctx := context.Background()
				for n := 0; ; {
					its, seq, p, ok, err := sub.NextBatchProv(ctx)
					if err != nil || !ok {
						done <- err
						return
					}
					n += len(its)
					if prov && !p.Valid() {
						done <- context.Canceled
						return
					}
					sub.Release(seq)
				}
			}()
			ctx := context.Background()
			for j := 0; j < batches; j++ {
				var err error
				if prov {
					err = ring.PublishProv(ctx, items, stream.BatchProv{BatchID: uint64(j + 1), SendMS: int64(j)})
				} else {
					err = ring.Publish(ctx, items)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			ring.Close()
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batches*batchSize*b.N)/b.Elapsed().Seconds(), "tuples/s")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
