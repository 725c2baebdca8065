package exp

import (
	"fmt"
	"sort"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/window"
)

// Experiment is one entry of the evaluation suite.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale) []Table
}

// All returns the full reconstructed evaluation suite in order.
func All() []Experiment {
	return []Experiment{
		{ID: "R1+R2", Title: "latency vs. quality bound; compliance", Run: R1R2},
		{ID: "R3", Title: "adaptation under delay drift", Run: R3},
		{ID: "R4", Title: "aggregate-function coverage", Run: R4},
		{ID: "R5", Title: "delay-distribution sensitivity", Run: R5},
		{ID: "R6", Title: "join recall vs. latency", Run: R6},
		{ID: "R7", Title: "disorder-handling throughput", Run: R7},
		{ID: "R8", Title: "window size and slide sweep", Run: R8},
		{ID: "R9", Title: "latency regret against the best fixed K", Run: R9},
		{ID: "R11", Title: "grouped query scaling [extension]", Run: R11},
		{ID: "R14", Title: "speculation (refinements) vs. buffering [extension]", Run: R14},
		{ID: "R16", Title: "batched transport + grouped execution [extension]", Run: R16},
	}
}

// Standard query shape shared by the aggregate experiments.
var (
	stdSpec   = window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	stdThetas = []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.1}
	stdSlacks = []stream.Time{500, 1 * stream.Second, 2 * stream.Second, 4 * stream.Second, 8 * stream.Second}
)

func aqHandler(theta float64, spec window.Spec, agg window.Factory) buffer.Handler {
	return core.NewAQKSlack(core.Config{Theta: theta, Spec: spec, Agg: agg})
}

// sortedNames returns map keys in deterministic order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// R1R2 runs R1 (result latency vs. quality bound θ for AQ-K-slack against
// the baseline handlers) and R2 (requested vs. achieved quality) from one
// set of executions.
func R1R2(s Scale) []Table {
	tuples := gen.Sensor(s.N(200000), 1).Arrivals()
	agg := window.Sum()
	oracle := window.Oracle(stdSpec, agg, tuples)

	r1 := Table{
		ID:    "R1",
		Title: fmt.Sprintf("mean result latency vs. quality bound (sum, %v, sensor workload, n=%d)", stdSpec, len(tuples)),
		Cols:  []string{"handler", "theta", "meanLat", "p95Lat", "meanErr", "p95Err", "compliance", "steadyK"},
		Notes: []string{
			"expected shape: AQ latency grows as theta tightens; every fixed K-slack is dominated at some theta",
			"maxslack ~ zero error at the highest latency; none ~ lowest latency at the highest error",
		},
	}
	r2 := Table{
		ID:    "R2",
		Title: "requested vs. achieved error (AQ-K-slack)",
		Cols:  []string{"theta", "meanErr", "p95Err", "compliance", "estErr(last)", "realizedEWMA"},
		Notes: []string{
			"expected shape: meanErr tracks just below theta (the controller targets Safety=0.8 of the bound on the mean)",
			"per-window compliance is partial at tight thetas: the bound is a mean-error contract, and the per-window error distribution has a tail (see p95Err)",
		},
	}

	for _, theta := range stdThetas {
		name := fmt.Sprintf("aq(%.1f%%)", 100*theta)
		o := RunAgg(name, tuples, oracle, stdSpec, agg, aqHandler(theta, stdSpec, agg), theta)
		r1.AddRow(name, Pct(theta), Ms(o.Latency.Mean), Ms(o.Latency.P95),
			Pct(o.Quality.MeanRelErr), Pct(o.Quality.P95RelErr), PctC(o.Quality.Compliance), Ms(SteadyK(o.Trace)))
		r2.AddRow(Pct(theta), Pct(o.Quality.MeanRelErr), Pct(o.Quality.P95RelErr),
			PctC(o.Quality.Compliance), Pct(o.Quality2.LastEstErr), Pct(o.Quality2.RealizedErrEWMA))
	}

	base := Baselines(stdSlacks)
	for _, name := range sortedNames(base) {
		o := RunAgg(name, tuples, oracle, stdSpec, agg, base[name](), 0.01)
		r1.AddRow(name, "-", Ms(o.Latency.Mean), Ms(o.Latency.P95),
			Pct(o.Quality.MeanRelErr), Pct(o.Quality.P95RelErr), PctC(o.Quality.Compliance), Ms(float64(o.Handler.MaxK)))
	}

	// Perfect-information lower bound: oracle punctuations released by a
	// punctuation-trusting buffer give exact results at the minimum
	// latency any exact method can achieve.
	punct := RunAggSource("punctuated*", stream.NewSliceSource(gen.WithOracleWatermarks(tuples, 64)),
		len(tuples), oracle, stdSpec, agg, buffer.NewPunctuated(), 0.01)
	r1.AddRow("punctuated*", "-", Ms(punct.Latency.Mean), Ms(punct.Latency.P95),
		Pct(punct.Quality.MeanRelErr), Pct(punct.Quality.P95RelErr), PctC(punct.Quality.Compliance), "-")
	r1.Notes = append(r1.Notes,
		"punctuated* uses oracle completeness watermarks (perfect future knowledge): the latency lower bound for exact results")
	return []Table{r1, r2}
}

// R3 traces the adaptive slack K(t) through a 4x mean-delay step.
func R3(s Scale) []Table {
	n := s.N(200000)
	stepAt := stream.Time(n/2) * 10 // event time of the step (interval 10)
	tuples := gen.SensorDrift(n, stepAt, 3).Arrivals()
	agg := window.Sum()
	oracle := window.Oracle(stdSpec, agg, tuples)
	theta := 0.01

	o := RunAgg("aq", tuples, oracle, stdSpec, agg, aqHandler(theta, stdSpec, agg), theta)

	t := Table{
		ID:    "R3",
		Title: fmt.Sprintf("adaptation trace: K(t) with a 4x delay step at t=%s (theta=%s)", Ms(float64(stepAt)), Pct(theta)),
		Cols:  []string{"t", "K", "estErr", "realizedErr", "piFactor"},
		Notes: []string{
			"expected shape: K roughly quadruples within a few adaptation periods after the step, then stabilizes",
			fmt.Sprintf("end-to-end quality across the whole run: meanErr=%s p95Err=%s compliance=%s",
				Pct(o.Quality.MeanRelErr), Pct(o.Quality.P95RelErr), PctC(o.Quality.Compliance)),
		},
	}
	// Sample the trace to ~40 rows.
	tr := o.Trace
	step := len(tr)/40 + 1
	for i := 0; i < len(tr); i += step {
		p := tr[i]
		t.AddRow(Ms(float64(p.At)), Ms(float64(p.K)), Pct(p.EstErr), Pct(p.RealizedErr), F(p.PIFactor, 2))
	}

	// Companion view: achieved error over event time, bucketed, showing
	// the transient violation around the step and the recovery.
	binned := Table{
		ID:    "R3b",
		Title: fmt.Sprintf("achieved error over time through the step (bin=60s, theta=%s)", Pct(theta)),
		Cols:  []string{"t", "windows", "meanErr", "maxErr", "compliance", "meanLat"},
		Notes: []string{"expected shape: a compliance dip in the bins right after the step, then recovery to the pre-step level"},
	}
	rep, err := cq.New(stream.FromTuples(tuples)).
		Handle(aqHandler(theta, stdSpec, agg)).
		Window(stdSpec, agg).
		Run()
	if err != nil {
		panic(err)
	}
	// Boundary windows forced out at flush carry end-of-stream latency;
	// bin only the progress-emitted results.
	bins := metrics.TimeBinned(rep.Results[:rep.PreFlush], oracle, 60*int64(stream.Second), theta)
	for _, b := range bins {
		binned.AddRow(Ms(float64(b.Start)), I(int64(b.Windows)), Pct(b.MeanRelErr),
			Pct(b.MaxRelErr), PctC(b.Compliance), Ms(b.MeanLat))
	}
	return []Table{t, binned}
}

// R4 covers the aggregate functions at a fixed quality bound. The value
// distribution carries rare 20x spikes so that loss sensitivity actually
// differs across functions: extremes and sums hinge on whether a spike is
// late, while means and medians barely notice.
func R4(s Scale) []Table {
	c := gen.Sensor(s.N(150000), 4)
	// ~1 spike per 10s window: losing it moves max (and stddev) a lot.
	c.Values = gen.Spikes{Base: 100, Factor: 20, P: 0.001}
	tuples := c.Arrivals()
	theta := 0.01
	t := Table{
		ID:    "R4",
		Title: fmt.Sprintf("aggregate-function coverage at theta=%s (spiky values)", Pct(theta)),
		Cols:  []string{"aggregate", "meanErr", "p95Err", "compliance", "meanLat", "latVsMax", "steadyK"},
		Notes: []string{
			"latVsMax = AQ mean latency / MAX-slack mean latency (same aggregate): the latency the quality budget buys back",
			"expected shape: avg/median tolerate loss best (K ~ 0); sum/count need moderate K; max and stddev hinge on the (rare) spikes being on time and need the most slack",
		},
	}
	for _, agg := range window.AllFactories() {
		oracle := window.Oracle(stdSpec, agg, tuples)
		aq := RunAgg("aq", tuples, oracle, stdSpec, agg, aqHandler(theta, stdSpec, agg), theta)
		ms := RunAgg("maxslack", tuples, oracle, stdSpec, agg, buffer.NewMaxSlack(), theta)
		ratio := 0.0
		if ms.Latency.Mean > 0 {
			ratio = aq.Latency.Mean / ms.Latency.Mean
		}
		t.AddRow(agg.Name, Pct(aq.Quality.MeanRelErr), Pct(aq.Quality.P95RelErr),
			PctC(aq.Quality.Compliance), Ms(aq.Latency.Mean), F(ratio, 3), Ms(SteadyK(aq.Trace)))
	}
	return []Table{t}
}

// R5 compares delay distributions with matched mean (500), plus the
// discrete-event network simulation whose delays emerge from queueing.
func R5(s Scale) []Table {
	n := s.N(150000)
	theta := 0.01
	agg := window.Sum()

	models := []struct {
		name string
		mk   func(seed uint64) []stream.Tuple
	}{
		{"uniform(0,1000)", func(seed uint64) []stream.Tuple {
			c := gen.Sensor(n, seed)
			c.Delays = delay.Uniform{Lo: 0, Hi: 1000}
			return c.Arrivals()
		}},
		{"exp(500)", func(seed uint64) []stream.Tuple {
			c := gen.Sensor(n, seed)
			c.Delays = delay.Exponential{MeanD: 500}
			return c.Arrivals()
		}},
		{"normal(500,150)", func(seed uint64) []stream.Tuple {
			c := gen.Sensor(n, seed)
			c.Delays = delay.Normal{Mu: 500, Sigma: 150}
			return c.Arrivals()
		}},
		{"pareto(500,1.8)", func(seed uint64) []stream.Tuple {
			c := gen.Sensor(n, seed)
			c.Delays = delay.ParetoWithMean(500, 1.8)
			return c.Arrivals()
		}},
		{"simnet(2-path)", func(seed uint64) []stream.Tuple {
			c := gen.Sensor(n, seed)
			c.Delays = delay.Zero{}
			return sim.Transport(c.Events(), seed)
		}},
	}

	t := Table{
		ID:    "R5",
		Title: fmt.Sprintf("delay-distribution sensitivity at theta=%s (matched mean 500 except simnet)", Pct(theta)),
		Cols:  []string{"delays", "ooo%", "maxLate", "meanErr", "compliance", "meanLat", "steadyK"},
		Notes: []string{
			"expected shape: matched means do not imply matched slack — K is set by the lateness quantile at the loss budget after window headroom; the Pareto body is mostly tiny (rare extremes are surrendered to the error budget), so it needs less K than bounded uniform/normal whose mass sits near the mean",
			"simnet delays emerge from queueing+multipath in the discrete-event simulator (internal/sim)",
		},
	}
	for _, m := range models {
		tuples := m.mk(5)
		oracle := window.Oracle(stdSpec, agg, tuples)
		o := RunAgg(m.name, tuples, oracle, stdSpec, agg, aqHandler(theta, stdSpec, agg), theta)
		t.AddRow(m.name, PctC(o.Disorder.FracOutOfOrder()), Ms(float64(o.Disorder.MaxLateness)),
			Pct(o.Quality.MeanRelErr), PctC(o.Quality.Compliance), Ms(o.Latency.Mean), Ms(SteadyK(o.Trace)))
	}
	return []Table{t}
}

// R6 evaluates quality-driven buffering for band joins: recall vs. pair
// latency.
func R6(s Scale) []Table {
	n := s.N(60000)
	mk := func(src uint8, seed uint64) []stream.Tuple {
		c := gen.Config{
			N: n, Interval: 10, Poisson: true, NumKeys: 64,
			Values: gen.UniformValue{Lo: 0, Hi: 100},
			Delays: delay.ParetoWithMean(400, 1.8),
			Seed:   seed,
		}
		ts := c.Events()
		for i := range ts {
			ts[i].Src = src
		}
		return ts
	}
	left := mk(0, 61)
	right := mk(1, 62)
	merged := append(append([]stream.Tuple{}, left...), right...)
	stream.SortByArrival(merged)
	jcfg := join.Config{Band: 500, KeyMatch: true, RetainFor: 60 * stream.Second}

	t := Table{
		ID:    "R6",
		Title: fmt.Sprintf("join recall vs. latency (band=%s, 64 keys, n=2x%d)", Ms(float64(jcfg.Band)), n),
		Cols:  []string{"handler", "target", "recall", "precision", "meanPairLat", "steadyK"},
		Notes: []string{
			"expected shape: AQ meets each recall target with latency between the fixed slacks bracketing it",
			"precision stays 1.0 for all buffered handlers (buffering never fabricates pairs)",
		},
	}

	for _, recall := range []float64{0.90, 0.95, 0.99, 0.999} {
		name := fmt.Sprintf("aq-join(%.1f%%)", 100*recall)
		o := RunJoin(name, merged, left, right, jcfg, core.NewAQJoin(core.JoinConfig{Recall: recall, Band: jcfg.Band}))
		t.AddRow(name, PctC(recall), PctC(o.Pairs.Recall), F(o.Pairs.Precision, 4), Ms(o.MeanLat), Ms(o.SteadyK))
	}
	fixed := map[string]func() buffer.Handler{
		"none":        func() buffer.Handler { return buffer.Zero() },
		"kslack-1s":   func() buffer.Handler { return buffer.NewKSlack(stream.Second) },
		"kslack-4s":   func() buffer.Handler { return buffer.NewKSlack(4 * stream.Second) },
		"kslack-16s":  func() buffer.Handler { return buffer.NewKSlack(16 * stream.Second) },
		"maxslack":    func() buffer.Handler { return buffer.NewMaxSlack() },
		"wm-p95":      func() buffer.Handler { return buffer.NewPercentile(0.95, 500) },
		"kslack-250m": func() buffer.Handler { return buffer.NewKSlack(250) },
	}
	for _, name := range sortedNames(fixed) {
		mkH := fixed[name]
		o := RunJoin(name, merged, left, right, jcfg, mkH())
		t.AddRow(name, "-", PctC(o.Pairs.Recall), F(o.Pairs.Precision, 4), Ms(o.MeanLat), Ms(o.SteadyK))
	}

	// R6b: the m-way generalization — a three-way join driven by the same
	// recall model with missRate = 1-(1-p)^3. MWay has no retained-state
	// miss accounting, so AQ runs open loop (model only).
	mN := n / 4 // 3-way output grows fast; keep the combination count sane
	mk3 := func(src uint8, seed uint64) []stream.Tuple {
		c := gen.Config{
			N: mN, Interval: 10, Poisson: true, NumKeys: 64,
			Values: gen.UniformValue{Lo: 0, Hi: 100},
			Delays: delay.ParetoWithMean(400, 1.8),
			Seed:   seed,
		}
		ts := c.Events()
		for i := range ts {
			ts[i].Src = src
		}
		return ts
	}
	streams := [][]stream.Tuple{mk3(0, 71), mk3(1, 72), mk3(2, 73)}
	var merged3 []stream.Tuple
	for _, st := range streams {
		merged3 = append(merged3, st...)
	}
	stream.SortByArrival(merged3)
	j3cfg := join.Config{Band: 500, KeyMatch: true}
	oracle3 := join.OracleMWay(3, j3cfg, streams)

	t3 := Table{
		ID:    "R6b",
		Title: fmt.Sprintf("three-way join recall (band=%s, 64 keys, n=3x%d, model-only AQ)", Ms(float64(j3cfg.Band)), mN),
		Cols:  []string{"handler", "target", "recall", "combos", "steadyK"},
		Notes: []string{
			"expected shape: per-combination miss compounds over 3 constituents, so the same recall target needs more slack than the 2-way case",
		},
	}
	run3 := func(name string, h buffer.Handler, target string) {
		op := join.NewMWay(3, j3cfg)
		var rel []stream.Tuple
		var results []join.MResult
		var now stream.Time
		for _, tp := range merged3 {
			now = tp.Arrival
			rel = h.Insert(stream.DataItem(tp), rel[:0])
			for _, r := range rel {
				results = op.Insert(int(r.Src), r, now, results)
			}
		}
		rel = h.Flush(rel[:0])
		for _, r := range rel {
			results = op.Insert(int(r.Src), r, now, results)
		}
		emitted := make(map[string]struct{}, len(results))
		for _, r := range results {
			emitted[r.Key()] = struct{}{}
		}
		hits := 0
		for k := range emitted {
			if _, ok := oracle3[k]; ok {
				hits++
			}
		}
		recall := 1.0
		if len(oracle3) > 0 {
			recall = float64(hits) / float64(len(oracle3))
		}
		steady := float64(h.K())
		if aq, ok := h.(*core.AQKSlack); ok {
			steady = SteadyK(aq.Trace())
		}
		t3.AddRow(name, target, PctC(recall), I(int64(len(emitted))), Ms(steady))
	}
	for _, recall := range []float64{0.95, 0.99} {
		run3(fmt.Sprintf("aq-join3(%.0f%%)", 100*recall),
			core.NewAQJoin(core.JoinConfig{Recall: recall, Band: j3cfg.Band, Streams: 3}),
			PctC(recall))
	}
	run3("none", buffer.Zero(), "-")
	run3("kslack-4s", buffer.NewKSlack(4*stream.Second), "-")
	run3("maxslack", buffer.NewMaxSlack(), "-")
	return []Table{t, t3}
}

// R7 measures per-handler pipeline throughput (wall clock).
func R7(s Scale) []Table {
	tuples := gen.Sensor(s.N(500000), 7).Arrivals()
	agg := window.Sum()
	oracle := window.Oracle(stdSpec, agg, tuples)

	t := Table{
		ID:    "R7",
		Title: fmt.Sprintf("disorder-handling throughput (tuples/s, n=%d, incl. window operator)", len(tuples)),
		Cols:  []string{"handler", "tuples/s", "maxBuffered", "meanErr"},
		Notes: []string{
			"expected shape: none is fastest; kslack/maxslack pay the sort heap (~2x); aq pays the estimator (~3-4x vs kslack, adapting once per slide) while still exceeding 1M tuples/s",
		},
	}
	handlers := map[string]func() buffer.Handler{
		"none":      func() buffer.Handler { return buffer.Zero() },
		"kslack-2s": func() buffer.Handler { return buffer.NewKSlack(2 * stream.Second) },
		"maxslack":  func() buffer.Handler { return buffer.NewMaxSlack() },
		"wm-p95":    func() buffer.Handler { return buffer.NewPercentile(0.95, 500) },
		"aq(1%)":    func() buffer.Handler { return aqHandler(0.01, stdSpec, agg) },
	}
	for _, name := range sortedNames(handlers) {
		o := RunAgg(name, tuples, oracle, stdSpec, agg, handlers[name](), 0.01)
		t.AddRow(name, F(o.Throughput, 0), I(int64(o.Handler.MaxHeld)), Pct(o.Quality.MeanRelErr))
	}
	return []Table{t}
}

// R8 sweeps window size and slide at a fixed bound.
func R8(s Scale) []Table {
	tuples := gen.Sensor(s.N(150000), 8).Arrivals()
	agg := window.Sum()
	theta := 0.01
	t := Table{
		ID:    "R8",
		Title: fmt.Sprintf("window sweep at theta=%s (sum, sensor workload)", Pct(theta)),
		Cols:  []string{"size", "slide", "meanErr", "compliance", "meanLat", "steadyK"},
		Notes: []string{
			"expected shape: larger windows tolerate the same delays with smaller K (per-tuple loss probability falls), so latency shrinks relative to window size",
		},
	}
	for _, size := range []stream.Time{1, 5, 10, 30, 60} {
		for _, slide := range []stream.Time{1, 5, 10} {
			if slide > size {
				continue
			}
			spec := window.Spec{Size: size * stream.Second, Slide: slide * stream.Second}
			oracle := window.Oracle(spec, agg, tuples)
			o := RunAgg("aq", tuples, oracle, spec, agg, aqHandler(theta, spec, agg), theta)
			t.AddRow(Ms(float64(spec.Size)), Ms(float64(spec.Slide)),
				Pct(o.Quality.MeanRelErr), PctC(o.Quality.Compliance), Ms(o.Latency.Mean), Ms(SteadyK(o.Trace)))
		}
	}
	return []Table{t}
}

// The fixed-K grid R9 searches: every 50 ms from 0 to 30 s.
const (
	regretStep    stream.Time = 50
	regretCeiling             = 30 * stream.Second
)

// R9 measures the adaptive handler's latency regret against the best fixed
// K-slack in hindsight, on R1's workload at R1's bounds and across a 4x
// delay step up (R3's workload and one of its own) and down. Per row, the
// oracle K is the smallest grid K whose fixed K-slack meets θ on the mean
// error, the matched K the smallest whose error is no more than the adaptive
// handler's own (oracle.SmallestK bisects the grid for both, so it assumes
// error falls with K); the regret is how much later the adaptive handler's
// results come than that fixed K's, in mean latency.
func R9(s Scale) []Table {
	n, n9 := s.N(200000), s.N(150000)
	stepDown := gen.Sensor(n, 5)
	stepDown.Delays = delay.Step{
		Before: delay.ParetoWithMean(2000, 1.8),
		After:  delay.ParetoWithMean(500, 1.8),
		At:     stream.Time(n/2) * 10,
	}
	workloads := []struct {
		name   string
		c      gen.Config
		thetas []float64
	}{
		{"sensor (R1)", gen.Sensor(n, 1), []float64{0.001, 0.005, 0.01, 0.02}},
		{"step up 4x (R3)", gen.SensorDrift(n, stream.Time(n/2)*10, 3), []float64{0.01}},
		{"step up 4x", gen.SensorDrift(n9, stream.Time(n9/2)*10, 9), []float64{0.01}},
		{"step down 4x", stepDown, []float64{0.01}},
	}
	agg := window.Sum()
	t := Table{
		ID:    "R9",
		Title: fmt.Sprintf("latency regret against the best fixed K (sum, %v, fixed-K grid %s..%s by %s)", stdSpec, Ms(0), Ms(float64(regretCeiling)), Ms(float64(regretStep))),
		Cols:  []string{"workload", "theta", "aqLat", "aqErr", "oracleK", "itsLat", "regret@theta", "matchedK", "itsLat", "regret@matched"},
		Notes: []string{
			"expected shape: positive regret at theta (the controller aims at 0.8 theta), small at matched error; on a drift workload one fixed K for both regimes is a weak rival",
		},
	}
	runs := 0
	for _, w := range workloads {
		tuples := w.c.Arrivals()
		exact := window.Oracle(stdSpec, agg, tuples)
		fixed := map[stream.Time]AggOutcome{} // both searches of a row, and every row of a workload, share runs
		run := func(k stream.Time) AggOutcome {
			o, ok := fixed[k]
			if !ok {
				o = RunAgg("kslack", tuples, exact, stdSpec, agg, buffer.NewKSlack(k), 0.01)
				fixed[k] = o
			}
			return o
		}
		for _, theta := range w.thetas {
			aq := RunAgg("aq", tuples, exact, stdSpec, agg, aqHandler(theta, stdSpec, agg), theta)
			row := []string{w.name, Pct(theta), Ms(aq.Latency.Mean), Pct(aq.Quality.MeanRelErr)}
			for _, bound := range []float64{theta, aq.Quality.MeanRelErr} {
				k, ok := oracle.SmallestK(regretStep, regretCeiling, func(k stream.Time) bool {
					return run(k).Quality.MeanRelErr <= bound
				})
				if !ok {
					row = append(row, "> "+Ms(float64(regretCeiling)), "-", "-")
					continue
				}
				lat := run(k).Latency.Mean
				row = append(row, Ms(float64(k)), Ms(lat), fmt.Sprintf("%+.1f%%", 100*(aq.Latency.Mean/lat-1)))
			}
			t.AddRow(row...)
		}
		runs += len(fixed)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d fixed-K runs", runs))
	return []Table{t}
}
