package exp

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// R12 evaluates quality-driven load shedding: a theta sweep under fixed
// 4x overload, with and without Horvitz–Thompson compensation. The total
// budget is split half shedding, half disorder handling.
func R12(s Scale) []Table {
	n := s.N(200000)
	agg := window.Sum()

	t := Table{
		ID:    "R12",
		Title: "quality-driven load shedding under 4x overload (sum; budget split half shed / half buffer)",
		Cols:  []string{"theta", "compensate", "shedFrac", "pBudget", "wantedFrac", "meanErr", "compliance"},
		Notes: []string{
			"the load target asks for 75% shedding (4x overload); the shedder grants min(wanted, quality budget)",
			"expected shape: uncompensated shedding of a sum is capped near theta/2; Horvitz–Thompson compensation multiplies the budget until the sampling-variance term binds",
		},
	}
	tuples := gen.Sensor(n, 12).Arrivals()
	oracle := window.Oracle(stdSpec, agg, tuples)
	offered := 100.0 // sensor workload: 1 tuple / 10 stream-time units
	const overload = 4.0
	for _, theta := range []float64{0.01, 0.02, 0.05, 0.10} {
		for _, comp := range []bool{false, true} {
			inner := core.NewAQKSlack(core.Config{Theta: theta / 2, Spec: stdSpec, Agg: agg})
			sh := core.NewShedder(core.ShedConfig{
				Theta: theta / 2, Spec: stdSpec, Agg: agg,
				TargetRate: offered / overload, Compensate: comp,
			}, inner)
			o := RunAgg(fmt.Sprintf("theta=%g/comp=%v", theta, comp),
				tuples, oracle, stdSpec, agg, sh, theta)
			st := sh.Shed()
			t.AddRow(Pct(theta), fmt.Sprintf("%v", comp),
				PctC(st.ShedFrac()), PctC(st.MeanPBudget), PctC(st.MeanPWanted),
				Pct(o.Quality.MeanRelErr), PctC(o.Quality.Compliance))
		}
	}
	return []Table{t}
}

// R13 evaluates session windows under disorder: structural (boundary)
// accuracy and latency for the two repair mechanisms — upstream slack
// buffering vs. operator-level hold (allowed lateness) — against no
// handling.
func R13(s Scale) []Table {
	n := s.N(120000)
	gap := stream.Time(50)
	agg := window.Sum()

	// Keyed activity stream with explicit session structure and
	// heavy-tailed delays on the order of the gap.
	rng := stats.NewRNG(13)
	var tuples []stream.Tuple
	ts := stream.Time(0)
	dm := delay.ParetoWithMean(60, 1.8)
	for i := 0; i < n; i++ {
		g := stream.Time(rng.Intn(20))
		if rng.Intn(25) == 0 {
			g += 200
		}
		ts += g
		tuples = append(tuples, stream.Tuple{
			TS: ts, Arrival: ts + stream.Time(dm.Delay(ts, rng)),
			Seq: uint64(i), Key: uint64(rng.Intn(8)), Value: 1,
		})
	}
	stream.SortByArrival(tuples)

	t := Table{
		ID:    "R13",
		Title: fmt.Sprintf("session windows under disorder (gap=%s, n=%d, 8 keys)", Ms(float64(gap)), n),
		Cols:  []string{"mechanism", "boundaryAcc", "splits", "missing", "lateDrops", "meanLat"},
		Notes: []string{
			"boundaryAcc = fraction of oracle sessions reproduced with exact (key, start, end)",
			"expected shape: hold-H and kslack-H repair boundaries comparably at a similar latency cost; none splits sessions",
			"aq-session adapts the hold to the accuracy target: it should land between the fixed holds bracketing its target",
		},
	}
	type variant struct {
		name    string
		handler func() buffer.Handler
		hold    stream.Time
	}
	variants := []variant{
		{"none", func() buffer.Handler { return buffer.Zero() }, 0},
		{"hold-100ms", func() buffer.Handler { return buffer.Zero() }, 100},
		{"hold-500ms", func() buffer.Handler { return buffer.Zero() }, 500},
		{"kslack-100ms", func() buffer.Handler { return buffer.NewKSlack(100) }, 0},
		{"kslack-500ms", func() buffer.Handler { return buffer.NewKSlack(500) }, 0},
		{"maxslack", func() buffer.Handler { return buffer.NewMaxSlack() }, 0},
	}
	for _, v := range variants {
		rep, err := cq.NewSession(stream.FromTuples(tuples), gap, agg).
			Handle(v.handler()).
			Hold(v.hold).
			KeepInput().
			Run()
		if err != nil {
			panic(err)
		}
		q := rep.Quality(gap, agg)
		t.AddRow(v.name, PctC(q.BoundaryAccuracy()), I(int64(q.Splits)), I(int64(q.Missing)),
			I(rep.Op.LateDrops), Ms(rep.MeanLatency()))
	}

	// Quality-driven hold: AQSession adapts the hold to a boundary
	// accuracy target.
	oracle := window.SessionOracle(gap, agg, tuples)
	for _, beta := range []float64{0.95, 0.99} {
		a := core.NewAQSession(core.SessionConfig{Beta: beta, Gap: gap, Agg: agg})
		var out []window.SessionResult
		var now stream.Time
		for _, tp := range tuples {
			now = tp.Arrival
			out = a.Observe(tp, now, out)
		}
		preFlush := len(out)
		out = a.Flush(now, out)
		q := window.CompareSessions(out, oracle)
		var meanLat float64
		if preFlush > 0 {
			for _, r := range out[:preFlush] {
				meanLat += float64(r.Latency())
			}
			meanLat /= float64(preFlush)
		}
		t.AddRow(fmt.Sprintf("aq-session(%.0f%%)", 100*beta),
			PctC(q.BoundaryAccuracy()), I(int64(q.Splits)), I(int64(q.Missing)),
			I(a.Op().Stats().LateDrops), Ms(meanLat))
	}
	return []Table{t}
}

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
			Handle(buffer.NewKSlack(2 * stream.Second)).
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
