package exp

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/window"
)

// R14 evaluates emit-then-refine (speculation) against buffering: with
// RefineLate, windows are emitted eagerly and re-emitted when stragglers
// arrive, so the *final* value converges while consumers absorb
// revisions. The trade-off axis is revisions vs. latency-to-first-result.
func R14(s Scale) []Table {
	n := s.N(150000)
	theta := 0.01
	agg := window.Sum()
	tuples := gen.Sensor(n, 14).Arrivals()
	oracle := window.Oracle(stdSpec, agg, tuples)

	t := Table{
		ID:    "R14",
		Title: fmt.Sprintf("speculation (emit + refine) vs. buffering (n=%d, refine horizon 60s)", n),
		Cols:  []string{"handler", "policy", "firstErr", "finalErr", "revised%", "revs/win", "firstLat"},
		Notes: []string{
			"firstErr = error of the primary (first) emissions; finalErr = error after refinements overwrite",
			"revs/win = refinement emissions per window: the downstream churn consumers must absorb",
			"expected shape: refinement drives finalErr toward zero regardless of buffering; buffering cuts the churn (revs/win) at the cost of first-result latency",
		},
	}
	handlers := []struct {
		name string
		mk   func() buffer.Handler
	}{
		{"none", func() buffer.Handler { return buffer.Zero() }},
		{"kslack-500ms", func() buffer.Handler { return buffer.NewKSlack(500) }},
		{"kslack-2s", func() buffer.Handler { return buffer.NewKSlack(2 * stream.Second) }},
		{"aq(1%)", func() buffer.Handler { return aqHandler(theta, stdSpec, agg) }},
	}
	for _, h := range handlers {
		for _, refine := range []bool{false, true} {
			b := cq.New(stream.FromTuples(tuples)).Handle(h.mk()).Window(stdSpec, agg)
			policy := "drop"
			if refine {
				policy = "refine"
				b = b.Refine(60 * stream.Second)
			}
			rep, err := b.Run()
			if err != nil {
				panic(err)
			}
			primary := window.Primary(rep.Results)
			firstQ := metrics.Compare(primary, oracle, metrics.CompareOpts{
				Theta: theta, SkipWarmup: warmupWindows, SkipEmptyOracle: true,
			})
			finalQ := metrics.Compare(rep.Results, oracle, metrics.CompareOpts{
				Theta: theta, SkipWarmup: warmupWindows, SkipEmptyOracle: true,
			})
			revised := map[int64]bool{}
			for _, r := range rep.Results {
				if r.Refinement {
					revised[r.Idx] = true
				}
			}
			revisedFrac := 0.0
			revsPerWin := 0.0
			if len(primary) > 0 {
				revisedFrac = float64(len(revised)) / float64(len(primary))
				revsPerWin = float64(rep.Op.Refinements) / float64(len(primary))
			}
			t.AddRow(h.name, policy, Pct(firstQ.MeanRelErr), Pct(finalQ.MeanRelErr),
				PctC(revisedFrac), F(revsPerWin, 2), Ms(rep.Latency(warmupWindows).Mean))
		}
	}
	return []Table{t}
}

// R11 scales the number of group-by keys for a quality-driven grouped
// query: throughput and per-key quality as key cardinality grows.
func R11(s Scale) []Table {
	n := s.N(200000)
	theta := 0.02
	agg := window.Sum()
	t := Table{
		ID:    "R11",
		Title: fmt.Sprintf("grouped (GROUP BY key) query scaling at theta=%s (n=%d)", Pct(theta), n),
		Cols:  []string{"keys", "tuples/s", "keyedWindows", "meanErr", "compliance", "meanLat"},
		Notes: []string{
			"expected shape: throughput degrades gently with key count (per-key window state); per-key error stays bounded",
			"per-key windows hold n/keys tuples, so relative error per window grows noisier as keys increase",
		},
	}
	for _, keys := range []int{1, 16, 256} {
		c := gen.Sensor(n, 11)
		c.NumKeys = keys
		h := core.NewAQKSlack(core.Config{Theta: theta, Spec: stdSpec, Agg: agg})
		start := time.Now()
		q := cq.New(c.Source()).Handle(buffer.Handler(h)).Window(stdSpec, agg).KeepInput()
		if keys > 1 {
			q = q.GroupBy()
		}
		rep, err := q.Run()
		if err != nil {
			panic(err)
		}
		wall := time.Since(start).Seconds()
		var quality metrics.QualityReport
		var windows int
		if keys > 1 {
			quality = rep.KeyedQuality(stdSpec, agg, metrics.CompareOpts{
				Theta: theta, SkipWarmup: 5, SkipEmptyOracle: true,
			})
			windows = len(rep.Keyed)
		} else {
			quality = rep.Quality(stdSpec, agg, metrics.CompareOpts{
				Theta: theta, SkipWarmup: warmupWindows, SkipEmptyOracle: true,
			})
			windows = len(rep.Results)
		}
		t.AddRow(I(int64(keys)), F(float64(n)/wall, 0), I(int64(windows)),
			Pct(quality.MeanRelErr), PctC(quality.Compliance), Ms(rep.Latency(5).Mean))
	}
	return []Table{t}
}

// R16 validates the concurrent driver's batched transport: quality and
// compliance must be invariant across batch sizes (R16a), and a grouped
// query's concurrent output must be byte-identical to the synchronous
// grouped Run (R16b). Absolute throughput depends on the host;
// `go test -bench 'BenchmarkPipelineBatched|BenchmarkGrouped' .` runs the
// same sweep as benchmarks.
func R16(s Scale) []Table {
	n := s.N(200000)
	theta := 0.01
	agg := window.Sum()

	// R16a: transport batch sweep on a single-key adaptive query. The
	// engine's output contract makes every row identical except wall time.
	a := Table{
		ID:    "R16a",
		Title: fmt.Sprintf("batched transport sweep at theta=%s (RunConcurrent, n=%d)", Pct(theta), n),
		Cols:  []string{"batch", "tuples/s", "windows", "meanErr", "p95Err", "compliance", "meanLat"},
		Notes: []string{
			"expected shape: quality columns identical across batch sizes (batching changes transport, not semantics); throughput rises with batch as channel ops amortize",
		},
	}
	for _, batch := range []int{1, 64, 256} {
		c := gen.Sensor(n, 16)
		tuples := c.Arrivals()
		h := core.NewAQKSlack(core.Config{Theta: theta, Spec: stdSpec, Agg: agg})
		start := time.Now()
		rep, err := cq.New(stream.FromTuples(tuples)).
			Handle(buffer.Handler(h)).
			Window(stdSpec, agg).
			KeepInput().
			Batch(batch).
			RunConcurrent(context.Background(), nil)
		if err != nil {
			panic(err)
		}
		wall := time.Since(start).Seconds()
		quality := rep.Quality(stdSpec, agg, metrics.CompareOpts{
			Theta: theta, SkipWarmup: warmupWindows, SkipEmptyOracle: true,
		})
		a.AddRow(I(int64(batch)), F(float64(n)/wall, 0), I(int64(len(rep.Results))),
			Pct(quality.MeanRelErr), Pct(quality.P95RelErr), PctC(quality.Compliance),
			Ms(rep.Latency(warmupWindows).Mean))
	}

	// R16b: grouped execution, the concurrent driver against the
	// synchronous one. Both step the same keyed window stage; the identical
	// column asserts that their output is the same byte for byte.
	b := Table{
		ID:    "R16b",
		Title: fmt.Sprintf("grouped execution at theta=%s (256 keys, n=%d, host cores=%d)", Pct(theta), n, runtime.NumCPU()),
		Cols:  []string{"executor", "tuples/s", "keyedWindows", "meanErr", "compliance", "identical"},
		Notes: []string{
			"identical = keyed result sequence equals the synchronous Run byte for byte",
			"expected shape: quality/compliance identical; concurrent differs from sync only by the ring hop and the source goroutine",
		},
	}
	c := gen.Sensor(n, 17)
	c.NumKeys = 256
	tuples := c.Arrivals()
	build := func() *cq.AggQuery {
		return cq.New(stream.FromTuples(tuples)).
			Handle(buffer.NewKSlack(2*stream.Second)).
			Window(stdSpec, agg).
			GroupBy().KeepInput()
	}
	addRow := func(name string, rep *cq.AggReport, wall float64, baseline []window.KeyedResult) {
		identical := "-"
		if baseline != nil {
			same := len(rep.Keyed) == len(baseline)
			for i := 0; same && i < len(baseline); i++ {
				same = rep.Keyed[i] == baseline[i]
			}
			if same {
				identical = "yes"
			} else {
				identical = "NO"
			}
		}
		quality := rep.KeyedQuality(stdSpec, agg, metrics.CompareOpts{
			Theta: theta, SkipWarmup: 5, SkipEmptyOracle: true,
		})
		b.AddRow(name, F(float64(n)/wall, 0), I(int64(len(rep.Keyed))),
			Pct(quality.MeanRelErr), PctC(quality.Compliance), identical)
	}
	start := time.Now()
	syncRep, err := build().Run()
	if err != nil {
		panic(err)
	}
	addRow("sync", syncRep, time.Since(start).Seconds(), nil)
	start = time.Now()
	concRep, err := build().Batch(128).RunConcurrent(context.Background(), nil)
	if err != nil {
		panic(err)
	}
	addRow("concurrent", concRep, time.Since(start).Seconds(), syncRep.Keyed)
	return []Table{a, b}
}
