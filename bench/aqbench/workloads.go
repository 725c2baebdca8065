package main

import (
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/stream"
)

// Paced rates are calibrated once on the seed commit so the server burns
// 40-70 % of one core in the measured phase, then frozen: every later
// commit is driven with exactly these rates (bench/README.md has the
// calibration table). Changing one re-bases every claim made against it.

// sourceDef is one named network source: one TCP connection streaming one
// generated stream at a fixed wall-clock rate.
type sourceDef struct {
	name string
	// rate is the paced send rate in tuples per wall-clock second.
	rate int
	// floodN is how many extra tuples the diagnostic flood phase of a
	// traced run pushes as fast as the socket takes them.
	floodN int
	// stream builds the generator config for n tuples. Time-varying delay
	// models place their step and bursts relative to the stream's length,
	// so a shorter run sees the same shape.
	stream func(n int, seed uint64) gen.Config
}

// queryDef is one runtime query registered over POST /api/queries.
type queryDef struct {
	name   string
	source string
	cql    string
}

type workload struct {
	name    string
	why     string
	sources []sourceDef
	queries []queryDef
	// durable starts the server with -durable-dir/-snapshot-interval and
	// runs the 50 Hz control-plane reader beside the load.
	durable bool
}

// thetaNominal is the error bound fixed-slack queries are judged against
// for quality_ok_pct; adaptive queries are judged against their own θ.
const thetaNominal = 0.01

func sensorExp(n int, seed uint64) gen.Config {
	c := gen.Sensor(n, seed)
	c.Delays = delay.Exponential{MeanD: 100}
	return c
}

// sensorDrift is the adaptive controller's stress input: Pareto-tailed
// delays (mean 200 ms) with 5x bursts for 5 % of every burst period and a
// 3x step in the mean at the stream's midpoint.
func sensorDrift(n int, seed uint64) gen.Config {
	c := gen.Sensor(n, seed)
	span := stream.Time(n) * c.Interval
	burst := func(base delay.Model) delay.Model {
		return delay.Burst{Base: base, Factor: 5, Period: span / 20, BurstLen: span / 400}
	}
	c.Delays = delay.Step{
		Before: burst(delay.ParetoWithMean(200, 1.8)),
		After:  burst(delay.ParetoWithMean(600, 1.8)),
		At:     span / 2,
	}
	return c
}

const fixedKWireCQL = `SELECT sum FROM s0 WINDOW 10s SLIDE 1s HANDLER kslack(500ms)`

var workloads = []workload{
	{
		name: "fixedk_wire",
		why:  "fixed K-slack over one connection: handler and window are nearly free, so decode, publish and the ring hop do the work",
		sources: []sourceDef{
			{name: "s0", rate: 600_000, floodN: 1_500_000, stream: sensorExp},
		},
		queries: []queryDef{{name: "q0", source: "s0", cql: fixedKWireCQL}},
	},
	{
		name: "adaptive_drift",
		why:  "QUALITY 1% over drifting Pareto delays: the adaptive controller dominates CPU and decides latency and quality",
		sources: []sourceDef{
			{name: "s0", rate: 50_000, floodN: 200_000, stream: sensorDrift},
		},
		queries: []queryDef{{name: "q0", source: "s0",
			cql: `SELECT sum FROM s0 WINDOW 10s SLIDE 1s QUALITY 1%`}},
	},
	{
		name: "fanout8_windows",
		why:  "two sources fan out to four window shapes each: one decode feeds eight consumers, so window and fiba work dominate",
		sources: []sourceDef{
			{name: "s0", rate: 80_000, floodN: 300_000, stream: sensorExp},
			{name: "s1", rate: 80_000, floodN: 300_000, stream: sensorExp},
		},
		queries: fanoutQueries("s0", "s1"),
	},
	{
		name: "durable_readers",
		why:  "fixedk_wire's query journaled and snapshotted while a 50 Hz reader polls the API: writes beside reads on one lock",
		sources: []sourceDef{
			{name: "s0", rate: 400_000, floodN: 600_000, stream: sensorExp},
		},
		queries: []queryDef{{name: "q0", source: "s0", cql: fixedKWireCQL}},
		durable: true,
	},
}

// fanoutQueries registers the same four window shapes on every source:
// tumbling sum (evict-heavy), 60 s/1 s max (range-heavy), a 10 s p95
// (order statistic, no monoid) and a count behind a deeper 2 s slack.
func fanoutQueries(sources ...string) []queryDef {
	var out []queryDef
	for _, s := range sources {
		out = append(out,
			queryDef{s + "-tumble", s, `SELECT sum FROM ` + s + ` WINDOW 1s SLIDE 1s HANDLER kslack(500ms)`},
			queryDef{s + "-max60", s, `SELECT max FROM ` + s + ` WINDOW 60s SLIDE 1s HANDLER kslack(500ms)`},
			queryDef{s + "-p95", s, `SELECT p95 FROM ` + s + ` WINDOW 10s SLIDE 1s HANDLER kslack(500ms)`},
			queryDef{s + "-count", s, `SELECT count FROM ` + s + ` WINDOW 10s SLIDE 1s HANDLER kslack(2s)`},
		)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
