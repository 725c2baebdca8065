package repro

// Shared-source fan-out benchmarks (`go test -bench BenchmarkFanout
// -benchtime 3x -run '^$' .`): M concurrent queries over one stream, comparing the
// broadcast-ring ingest (internal/fanout — generation paid once, every
// query reads the published batches through its own cursor) against M
// fully independent pipelines each paying the whole ingest path. The
// reported tuples/s is the aggregate rate: M×N data tuples absorbed per
// wall second. EXPERIMENTS.md R20 records the scaling table.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/cq"
	"repro/internal/gen"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/window"
)

const (
	fanoutBenchN    = 1_000_000
	fanoutBenchSeed = 8081
)

var fanoutBenchSpec = window.Spec{Size: 10 * stream.Second, Slide: stream.Second}

func fanoutBenchQuery(src stream.ErrSource) *cq.AggQuery {
	return cq.NewFallible(src).
		Handle(buffer.NewKSlack(100)).
		Window(fanoutBenchSpec, window.Sum()).
		Batch(256)
}

// fanoutBenchSource is the ingest path aqserver pays per feed loop:
// generator, chaos decoration, retry/breaker wrapper. The shared
// benchmark pays it once (producer-side, as fanoutFeedLoop does); the
// independent benchmark pays it per query. DupRate-only chaos keeps the
// decoration honest without wall-clock retry sleeps.
func fanoutBenchSource(ctx context.Context, seed uint64) stream.ErrSource {
	src := stream.AsErrSource(gen.Sensor(fanoutBenchN, fanoutBenchSeed).Source())
	src = resilience.NewFaultSource(src, resilience.Chaos{DupRate: 0.001, Seed: seed})
	return resilience.NewRetryingSource(ctx, src, resilience.Retry{MaxAttempts: 6, Seed: seed})
}

// BenchmarkFanoutShared runs M replica queries over one broadcast ring:
// the stream is generated and published once per iteration, whatever M.
func BenchmarkFanoutShared(b *testing.B) {
	for _, m := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("q=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := context.Background()
				src := fanoutBenchSource(ctx, uint64(i))
				queries := make([]*cq.AggQuery, m)
				for j := range queries {
					queries[j] = fanoutBenchQuery(nil)
				}
				reps, err := cq.RunShared(ctx, src,
					cq.SharedOpts{Ring: 64, Batch: 256}, queries...)
				if err != nil {
					b.Fatal(err)
				}
				for _, rep := range reps {
					if rep.Handler.Inserted < fanoutBenchN { // duplicates may add more
						b.Fatalf("replica absorbed %d of %d tuples", rep.Handler.Inserted, fanoutBenchN)
					}
				}
			}
			b.ReportMetric(float64(m*fanoutBenchN*b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkFanoutIndependent runs the same M queries as M standalone
// pipelines, each paying generation and ingest on its own — what
// aqserver did for every query before -fanout existed.
func BenchmarkFanoutIndependent(b *testing.B) {
	for _, m := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("q=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				errc := make(chan error, m)
				for j := 0; j < m; j++ {
					go func(j int) {
						ctx := context.Background()
						src := fanoutBenchSource(ctx, uint64(i*m+j))
						rep, err := fanoutBenchQuery(src).RunConcurrent(ctx, nil)
						if err == nil && rep.Handler.Inserted < fanoutBenchN {
							err = fmt.Errorf("absorbed %d of %d tuples", rep.Handler.Inserted, fanoutBenchN)
						}
						errc <- err
					}(j)
				}
				for j := 0; j < m; j++ {
					if err := <-errc; err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(m*fanoutBenchN*b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}
