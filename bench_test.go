// Package repro's root benchmarks regenerate every table and figure of
// the reconstructed evaluation (DESIGN.md §4) at reduced scale — run
// `go test -bench=. -benchmem` here, or `go run ./cmd/experiments` for the
// full-size tables. Micro-benchmarks for the per-tuple hot paths follow
// the experiment benches.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// benchScale keeps each experiment iteration in the hundreds of
// milliseconds; the printed tables still show the qualitative shape.
const benchScale = exp.Scale(0.05)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	var chosen *exp.Experiment
	for _, e := range exp.All() {
		if e.ID == id || e.ID == id+"+R2" || id == "R2" && e.ID == "R1+R2" {
			e := e
			chosen = &e
			break
		}
	}
	if chosen == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := chosen.Run(benchScale)
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// BenchmarkR1LatencyVsQuality regenerates R1 (figure: mean latency vs.
// quality bound, AQ-K-slack against all baselines).
func BenchmarkR1LatencyVsQuality(b *testing.B) { runExperiment(b, "R1") }

// BenchmarkR2Compliance regenerates R2 (figure: requested vs. achieved
// error). It shares R1's executions.
func BenchmarkR2Compliance(b *testing.B) { runExperiment(b, "R2") }

// BenchmarkR3Adaptation regenerates R3 (figure: K(t) adaptation trace
// through a delay step).
func BenchmarkR3Adaptation(b *testing.B) { runExperiment(b, "R3") }

// BenchmarkR4Aggregates regenerates R4 (table: aggregate-function
// coverage).
func BenchmarkR4Aggregates(b *testing.B) { runExperiment(b, "R4") }

// BenchmarkR5DelayModels regenerates R5 (figure: delay-distribution
// sensitivity, including the discrete-event network simulation).
func BenchmarkR5DelayModels(b *testing.B) { runExperiment(b, "R5") }

// BenchmarkR6JoinRecall regenerates R6 (figure: join recall vs. latency).
func BenchmarkR6JoinRecall(b *testing.B) { runExperiment(b, "R6") }

// BenchmarkR7Throughput regenerates R7 (table: disorder-handling
// throughput).
func BenchmarkR7Throughput(b *testing.B) { runExperiment(b, "R7") }

// BenchmarkR8Windows regenerates R8 (figure: window size and slide sweep).
func BenchmarkR8Windows(b *testing.B) { runExperiment(b, "R8") }

// BenchmarkR9Regret regenerates R9 (table: latency regret against the best
// fixed K).
func BenchmarkR9Regret(b *testing.B) { runExperiment(b, "R9") }

// BenchmarkR11GroupedScaling regenerates R11 (extension table: grouped
// query scaling over key cardinality).
func BenchmarkR11GroupedScaling(b *testing.B) { runExperiment(b, "R11") }

// BenchmarkR14Speculation regenerates R14 (extension table: emit+refine
// speculation vs. buffering).
func BenchmarkR14Speculation(b *testing.B) { runExperiment(b, "R14") }

// --- micro-benchmarks for the per-tuple hot paths ---

func benchTuples(n int) []stream.Tuple {
	return gen.Sensor(n, 12345).Arrivals()
}

// BenchmarkKSlackInsert measures the fixed-slack buffer's per-tuple cost.
func BenchmarkKSlackInsert(b *testing.B) {
	tuples := benchTuples(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := buffer.NewKSlack(2 * stream.Second)
		var out []stream.Tuple
		for _, t := range tuples {
			out = h.Insert(stream.DataItem(t), out[:0])
		}
	}
	b.SetBytes(0)
	b.ReportMetric(float64(len(tuples)*b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkAQKSlackInsert measures the adaptive handler's per-tuple cost
// (estimator + controller included).
func BenchmarkAQKSlackInsert(b *testing.B) {
	tuples := benchTuples(100000)
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := core.NewAQKSlack(core.Config{Theta: 0.01, Spec: spec, Agg: window.Sum()})
		var out []stream.Tuple
		for _, t := range tuples {
			out = h.Insert(stream.DataItem(t), out[:0])
		}
	}
	b.ReportMetric(float64(len(tuples)*b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkWindowOpObserve measures the window operator's per-tuple cost
// for a 10x-overlapping sliding window.
func BenchmarkWindowOpObserve(b *testing.B) {
	tuples := benchTuples(100000)
	stream.SortByEventTime(tuples)
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := window.NewOp(spec, window.Sum(), window.DropLate, 0)
		var res []window.Result
		for _, t := range tuples {
			res = op.Observe(t, t.Arrival, res[:0])
		}
	}
	b.ReportMetric(float64(len(tuples)*b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkJoinProbe measures the band join's per-tuple probe cost.
func BenchmarkJoinProbe(b *testing.B) {
	n := 50000
	c := gen.Config{N: n, Interval: 10, Poisson: true, NumKeys: 64, Seed: 777}
	tuples := c.Arrivals()
	for i := range tuples {
		tuples[i].Src = uint8(i % 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := join.New(join.Config{Band: 500, KeyMatch: true})
		var out []join.Result
		for _, t := range tuples {
			out = j.Insert(join.Tagged{Tuple: t, Side: join.Side(t.Src)}, t.Arrival, out[:0])
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkTelemetryOverhead measures the cost of full pipeline
// instrumentation (cq.Telemetry + core.Telemetry into an obs registry)
// on the concurrent engine: the "off"/"on" sub-benchmarks run the same
// adaptive query uninstrumented and instrumented. The acceptance bar is
// <3% throughput loss (EXPERIMENTS.md R15).
func BenchmarkTelemetryOverhead(b *testing.B) {
	tuples := benchTuples(100000)
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	run := func(b *testing.B, instrumented bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := core.NewAQKSlack(core.Config{Theta: 0.01, Spec: spec, Agg: window.Sum()})
			q := cq.New(stream.FromTuples(tuples)).Handle(h).Window(spec, window.Sum())
			if instrumented {
				reg := obs.NewRegistry()
				h.Instrument(core.NewTelemetry(reg, "bench"))
				q.Instrument(cq.NewTelemetry(reg, "bench", spec))
			}
			if _, err := q.RunConcurrent(context.Background(), nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(tuples)*b.N)/b.Elapsed().Seconds(), "tuples/s")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkPipelineBatched measures the concurrent engine's transport
// cost on a single-key stream: batch=1 reproduces per-tuple ring hops,
// larger batches amortize them. The acceptance bar is batch=64 at >=1.5x
// the batch=1 throughput (EXPERIMENTS.md R16).
func BenchmarkPipelineBatched(b *testing.B) {
	tuples := benchTuples(200000)
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	for _, batch := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := cq.New(stream.FromTuples(tuples)).
					Handle(buffer.NewKSlack(2*stream.Second)).
					Window(spec, window.Sum()).
					Batch(batch)
				if _, err := q.RunConcurrent(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(tuples)*b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkGrouped measures grouped (GROUP BY key) execution over 256
// keys, library-shaped — every result retained on the report: "sync" is
// the synchronous Run driver, "concurrent" is RunConcurrent with batched
// transport. Both step the same keyed window stage; the difference is the
// ring hop and the source goroutine (EXPERIMENTS.md R16b).
func BenchmarkGrouped(b *testing.B) {
	cfg := gen.Sensor(200000, 12345)
	cfg.NumKeys = 256
	tuples := cfg.Arrivals()
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	build := func() *cq.AggQuery {
		return cq.New(stream.FromTuples(tuples)).
			Handle(buffer.NewKSlack(2*stream.Second)).
			Window(spec, window.Sum()).
			GroupBy()
	}
	run := func(name string, exec func(*cq.AggQuery) (*cq.AggReport, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec(build()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(tuples)*b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
	run("sync", func(q *cq.AggQuery) (*cq.AggReport, error) { return q.Run() })
	run("concurrent", func(q *cq.AggQuery) (*cq.AggReport, error) {
		return q.Batch(128).RunConcurrent(context.Background(), nil)
	})
}

// BenchmarkGroupedServerShaped is the grouped query the way cmd/aqserver
// runs its GROUP BY demo: nothing retained on the report, every keyed
// result delivered to a callback, a 200 ms slack, 64-item batches (the
// shape EXPERIMENTS.md R16b compares against the retired sharded stage).
func BenchmarkGroupedServerShaped(b *testing.B) {
	cfg := gen.Sensor(400000, 12345)
	cfg.NumKeys = 256
	tuples := cfg.Arrivals()
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	b.ReportAllocs()
	b.ResetTimer()
	results := 0
	for i := 0; i < b.N; i++ {
		results = 0
		q := cq.New(stream.FromTuples(tuples)).
			Handle(buffer.NewKSlack(200*stream.Millisecond)).
			Window(spec, window.Sum()).
			GroupBy().Batch(64).DiscardReport()
		if _, err := q.RunConcurrent(context.Background(), func(window.Result) { results++ }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(results), "results")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(tuples)*b.N), "ns/tuple")
}

// BenchmarkEstimatorMinK measures one full model-driven slack selection
// (the expensive Monte-Carlo inversion plus sketch bisection).
func BenchmarkEstimatorMinK(b *testing.B) {
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	e := core.NewEstimator(spec, window.Sum(), core.EstimatorConfig{Seed: 2})
	rng := stats.NewRNG(3)
	for i := 0; i < 50000; i++ {
		e.ObserveTuple(rng.ExpFloat64()*500, rng.Float64Range(50, 150))
	}
	e.ObserveWindowCount(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k := e.MinK(0.01, 1<<20); k < 0 {
			b.Fatal("negative K")
		}
	}
}

// BenchmarkRecovery measures restart cost over a populated durable
// directory: each iteration performs a full recovery — load the newest
// snapshot, scan and repair the journal, replay the suffix through the
// handler and operator — for a 200k-tuple stream with a snapshot covering
// three quarters of it. The empty post-recovery source leaves the
// directory untouched, so iterations are independent.
func BenchmarkRecovery(b *testing.B) {
	tuples := benchTuples(200000)
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	dir := b.TempDir()
	log, err := durable.Open(durable.Options{Dir: dir, SnapshotEvery: 150000})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cq.New(stream.FromTuples(tuples)).
		Handle(buffer.NewKSlack(2*stream.Second)).
		Window(spec, window.Sum()).
		Durable(log).
		Run(); err != nil {
		b.Fatal(err)
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var replayed int
	for i := 0; i < b.N; i++ {
		l, err := durable.Open(durable.Options{Dir: dir, SnapshotEvery: 150000})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := cq.New(stream.NewSliceSource(nil)).
			Handle(buffer.NewKSlack(2*stream.Second)).
			Window(spec, window.Sum()).
			Durable(l).
			Run()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Recovery == nil {
			b.Fatal("no recovery performed")
		}
		replayed = rep.Recovery.ReplayedItems
		l.Close()
	}
	b.ReportMetric(float64(replayed), "replayed-items")
}
