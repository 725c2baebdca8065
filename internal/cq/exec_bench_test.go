package cq

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/durable"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/stream"
	"repro/internal/window"
)

// BenchmarkExecStepServerShaped times Exec.Step the way cmd/aqserver's
// runners call it: the aqbench query shapes behind fixed K-slacks, a tracer
// and the -obs telemetry attached, the report discarded, whole ring batches
// of the size the paced server sees, exponential 100 ms delays (aqbench's
// sensorExp). Queries
// behind the same handler share one Exec, as the server's groups do
// (ShareKey): fanout4 is one Exec with the three kslack(500ms) window stages
// and one with the kslack(2s) stage. One iteration is one batch stepped
// through every Exec of the sub-benchmark; the metric that matters is
// ns/query-tuple, time inside Step only. A CPU profile of the paced server is
// phase-locked to its 2 ms tick and collects next to nothing — this is the
// profile to read instead (docs/TESTING.md).
//
// durable is fixedk journaled the way aqserver runs a durable query:
// 256-item ring batches, a journal in a temporary directory with the
// server's CommitEvery (64), snapshot interval (50 000 items) and -obs
// instruments, a snapshot Decorate like the runner's, and one Commit after
// every Step, timed with it. Snapshot and rotation fsyncs are wall time the
// CPU does not spend, so every sub-benchmark also reports cpu-ns/query-tuple,
// the process's user + system CPU over the same region, from getrusage.
// durable also reports journal-B/query-tuple, the journal bytes written per
// tuple: the growth of each log's open segment, read from its
// durable_journal_open_segment_bytes gauge after every step (outside the
// timed region; a step that rotates counts its new segment's records only).
func BenchmarkExecStepServerShaped(b *testing.B) {
	type shape struct {
		spec window.Spec
		agg  window.Factory
		k    stream.Time
	}
	sec := stream.Second
	fixedk := []shape{{window.Spec{Size: 10 * sec, Slide: sec}, window.Sum(), 500}}
	for _, bc := range []struct {
		name    string
		batch   int
		shapes  []shape
		durable bool
	}{
		{"fanout4", 160, []shape{
			{window.Spec{Size: sec, Slide: sec}, window.Sum(), 500},
			{window.Spec{Size: 60 * sec, Slide: sec}, window.Max(), 500},
			{window.Spec{Size: 10 * sec, Slide: sec}, window.Quantile(0.95), 500},
			{window.Spec{Size: 10 * sec, Slide: sec}, window.Count(), 2000},
		}, false},
		{"fixedk", 1200, fixedk, false},
		{"durable", 256, fixedk, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := gen.Sensor(240_000, 11)
			cfg.Delays = delay.Exponential{MeanD: 100}
			pool := collect(cfg.Source())
			span := stream.Time(len(pool)) * cfg.Interval

			results := 0
			var execs []*Exec
			byKey := map[string]*Exec{}
			logs := make([]*durable.QueryLog, 0, len(bc.shapes))
			var journals []*journalGrowth
			for _, s := range bc.shapes {
				q := New(nil).Handle(buffer.NewKSlack(s.k)).Window(s.spec, s.agg).
					Trace(tracez.New(tracez.NewRecorder(1<<12), "q")).
					Instrument(NewTelemetry(obs.NewRegistry(), "q", s.spec)).DiscardReport()
				if bc.durable {
					m := durable.NewMetrics(obs.NewRegistry())
					log, err := durable.Open(durable.Options{Dir: b.TempDir(), CommitEvery: 64, SnapshotEvery: 50_000,
						Metrics: m})
					if err != nil {
						b.Fatal(err)
					}
					defer log.Close()
					logs = append(logs, log)
					journals = append(journals, &journalGrowth{m: m, size: segHeader})
					q.Durable(Durable{Log: log, Decorate: func(s *durable.Snapshot) {
						s.Query, s.Counters = "q", map[string]int64{"emitted": int64(results)}
					}})
				}
				sink := func(window.Result) { results++ }
				key := ShareKey(q)
				if x := byKey[key]; x != nil && key != "" {
					if _, err := x.Join(q, sink); err != nil {
						b.Fatal(err)
					}
					continue
				}
				x, err := NewExec(q, sink)
				if err != nil {
					b.Fatal(err)
				}
				byKey[key] = x
				execs = append(execs, x)
			}

			// The pool is replayed end to end, each pass shifted one span on
			// in event time, arrival time and sequence, so the stream never
			// repeats. The shift is done outside the timed region.
			batch := make([]stream.Item, bc.batch)
			var inStep, cpu time.Duration
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
				start, cpu0 := time.Now(), cpuTime()
				for _, x := range execs {
					if err := x.Step(batch); err != nil {
						b.Fatal(err)
					}
				}
				for _, log := range logs {
					if err := log.Commit(); err != nil {
						b.Fatal(err)
					}
				}
				inStep += time.Since(start)
				cpu += cpuTime() - cpu0
				for _, j := range journals {
					j.sample()
				}
			}
			b.StopTimer()
			if results == 0 && b.N*bc.batch > 1000 {
				b.Fatal("no window ever closed; the benchmark measures nothing")
			}
			n := float64(b.N * bc.batch * len(bc.shapes))
			b.ReportMetric(float64(inStep.Nanoseconds())/n, "ns/query-tuple")
			b.ReportMetric(float64(cpu.Nanoseconds())/n, "cpu-ns/query-tuple")
			if len(journals) > 0 {
				var bytes float64
				for _, j := range journals {
					bytes += j.bytes
				}
				b.ReportMetric(bytes/n, "journal-B/query-tuple")
			}
		})
	}
}

// segHeader is a journal segment's header, which journalGrowth leaves out.
const segHeader = 16

// journalGrowth sums the bytes a journal's open segment grows by, sample to
// sample, from its durable_journal_open_segment_bytes gauge.
type journalGrowth struct {
	m               *durable.Metrics
	size, rotations float64
	bytes           float64
}

func (j *journalGrowth) sample() {
	size, rotations := j.m.JournalBytes.Value(), j.m.Rotations.Value()
	if rotations != j.rotations {
		j.size, j.rotations = segHeader, rotations
	}
	j.bytes += size - j.size
	j.size = size
}

// BenchmarkExecStepAdaptive is BenchmarkExecStepServerShaped for the
// adaptive controller: aqbench's adaptive_drift query (sum 10s/1s
// QUALITY 1% over its drift stream) with the tracer, watchdog and
// telemetry aqserver attaches, stepped in the 100-item batches its
// 50 k tuples/s feed arrives in. Every 150 k-tuple round starts a fresh
// Exec, so the sketch and reservoir grow as in a served round instead of
// saturating. One iteration is one step; the metric is ns/tuple inside
// Step (profile recipe: docs/TESTING.md). sum's loss curve is the closed
// form, so quality1pct_p95 — the same query over window.Quantile(0.95) —
// keeps the Monte-Carlo sweep measured. kslack2s is quality1pct's step with
// a fixed 2 s slack instead of the controller: the price of adaptation is
// the ratio (EXPERIMENTS.md R7).
func BenchmarkExecStepAdaptive(b *testing.B) {
	const round, batch = 150_000, 100
	// bench/aqbench's sensorDrift: Pareto delays whose mean steps from 200
	// to 600 at mid-stream, 5× bursts for 5 % of every twentieth of it.
	cfg := gen.Sensor(round, 51)
	span := stream.Time(round) * cfg.Interval
	burst := func(base delay.Model) delay.Model {
		return delay.Burst{Base: base, Factor: 5, Period: span / 20, BurstLen: span / 400}
	}
	cfg.Delays = delay.Step{
		Before: burst(delay.ParetoWithMean(200, 1.8)),
		After:  burst(delay.ParetoWithMean(600, 1.8)),
		At:     span / 2,
	}
	pool := collect(cfg.Source())
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	adaptive := func(agg window.Factory) func() buffer.Handler {
		return func() buffer.Handler {
			aq := core.NewAQKSlack(core.Config{Theta: 0.01, Spec: spec, Agg: agg})
			aq.Instrument(core.NewTelemetry(obs.NewRegistry(), "q"))
			return aq
		}
	}
	for _, bc := range []struct {
		name    string
		agg     window.Factory
		handler func() buffer.Handler
	}{
		{"quality1pct", window.Sum(), adaptive(window.Sum())},
		{"quality1pct_p95", window.Quantile(0.95), adaptive(window.Quantile(0.95))},
		{"kslack2s", window.Sum(), func() buffer.Handler { return buffer.NewKSlack(2 * stream.Second) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var x *Exec
			fresh := func() {
				tr := tracez.New(tracez.NewRecorder(tracez.DefaultRecorderSize), "q")
				tr.SetWatchdog(tracez.NewWatchdog(0.01, nil))
				var err error
				x, err = NewExec(New(nil).Handle(bc.handler()).Window(spec, bc.agg).Trace(tr).DiscardReport(), nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			var inStep time.Duration
			off := len(pool)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if off+batch > len(pool) {
					fresh()
					off = 0
				}
				start := time.Now()
				if err := x.Step(pool[off : off+batch]); err != nil {
					b.Fatal(err)
				}
				inStep += time.Since(start)
				off += batch
			}
			b.ReportMetric(float64(inStep.Nanoseconds())/float64(b.N*batch), "ns/tuple")
		})
	}
}

// BenchmarkExecStepJoin is BenchmarkExecStepAdaptive for the recall model:
// TestJoinPinned's band join (200 ms band on a 16-key match, 30 s
// retention, Pareto delays of mean 300 ms) behind core.NewAQJoin at 99 %
// recall, stepped in 100-item batches of the two sides merged by arrival.
// Every 40 k-item round starts a fresh Exec. One iteration is one step; the
// metric is ns/tuple inside Step, the join operator's probes included.
func BenchmarkExecStepJoin(b *testing.B) {
	const side, batch = 20_000, 100
	cfg := join.Config{Band: 200, KeyMatch: true, RetainFor: 30 * stream.Second}
	pool := collect(stream.NewMerge(stream.FromTuples(joinSide(0, side, 10)), stream.FromTuples(joinSide(1, side, 11))))
	var x *Exec
	fresh := func() {
		aq := core.NewAQJoin(core.JoinConfig{Recall: 0.99, Band: cfg.Band})
		var err error
		if x, err = newExec(&AggQuery{handler: aq, join: join.New(cfg)}, nil); err != nil {
			b.Fatal(err)
		}
	}
	var inStep time.Duration
	off := len(pool)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if off+batch > len(pool) {
			fresh()
			off = 0
		}
		start := time.Now()
		if err := x.Step(pool[off : off+batch]); err != nil {
			b.Fatal(err)
		}
		inStep += time.Since(start)
		off += batch
	}
	b.ReportMetric(float64(inStep.Nanoseconds())/float64(b.N*batch), "ns/tuple")
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
