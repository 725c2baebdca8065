package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// Disturbance limits: beyond them a round describes the host or the
// generator as much as the server.
const (
	maxGenLagP99MS = 5.0 // open-loop schedule slipped
	maxIdleCPUPct  = 5.0 // demo queries not idle, or a noisy neighbour
	// maxDiscarded is how many rounds of one run may be discarded and
	// repeated. On a shared host a vCPU is now and then withheld for
	// 50-100 ms and the generator catches up in a burst. A disturbed round
	// that still applied every tuple and passed the identity check is kept:
	// CPU per tuple is measured in CPU time, the run reports medians over
	// rounds, and the stream-time metrics do not depend on speed. One that
	// lost something is discarded, because the burst can lap the ring; once
	// the spares are spent it is kept too and its failures are reported, so
	// a server that no longer sustains the rate (the generator then lags
	// behind a full socket) cannot hide behind the guard.
	maxDiscarded = 4
)

// calibWarn makes a host that cannot run the calibrator say so once.
var calibWarn sync.Once

// options are the per-run knobs. Only seed, seconds and trace come from
// the command line; the rest are fixed in main and shrunk by the smoke
// test.
type options struct {
	seed       uint64
	seconds    float64 // measured paced phase
	warm       float64 // uncounted paced warm-up before it
	trace      bool
	scale      float64 // rate multiplier; 1 outside the smoke test
	rounds     int     // fresh server instances the measured phase is split over
	setupExtra int     // set-up samples taken beyond one per round
	idleWindow time.Duration
}

// env is what every workload of one invocation shares.
type env struct {
	root   string // checkout root
	bin    string // built aqserver
	runDir string // scratch directory under .bench_build, removed on exit
	cpus   cpuSplit
}

// result is one workload's outcome.
type result struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	mismatch  []string // identity-check failures, empty when correct
	e2e       map[string]float64
	layer     map[string]float64 // traced runs only
	// Sample counts behind the percentiles, printed beside them.
	latencySamples int
	windows        int
}

// round is what one fresh server instance contributed. Every run-level
// number is a median or a pooled sum over rounds: CPU per tuple settles at
// a slightly different level in every process (placement, layout), so one
// long run of one process measures that process, not the program.
type round struct {
	setupS, perCPU, rss float64 // perCPU is scaled by calib
	calib               float64 // the scale: cost of a calibration unit over its nominal cost
	applied, shed       int64   // query-tuples over the measured phase
	attempted, failed   int64
	mismatch            []string
	disturbed           []string // tripped disturbance limits, empty on a quiet host
	stream              streamSums
	layer               map[string]float64 // traced rounds only
}

// edge is one reading of the server's cumulative cost and progress.
type edge struct {
	at     time.Time
	cpu    float64
	tuples int64 // sum of tuplesIn over the workload's queries
	shed   int64
}

func readEdge(c *child, w workload) (edge, error) {
	e := edge{at: time.Now()}
	var err error
	if e.cpu, err = c.cpuSeconds(); err != nil {
		return e, err
	}
	sts, err := c.statuses()
	if err != nil {
		return e, err
	}
	for _, q := range w.queries {
		st, ok := sts[q.name]
		if !ok {
			return e, fmt.Errorf("query %s missing from /api/queries", q.name)
		}
		e.tuples += st.TuplesIn
		e.shed += st.Shed
	}
	return e, nil
}

// perCPU is query-tuples applied per server CPU second between two edges.
func perCPU(a, b edge) float64 {
	if b.cpu <= a.cpu {
		return math.NaN()
	}
	return float64(b.tuples-a.tuples) / (b.cpu - a.cpu)
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// percentileMS is the q-quantile of durations in milliseconds; 0 for none.
func percentileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return stats.Percentile(ms, q)
}

// setUp starts a server and registers the workload on it. The time it
// takes — process start to /readyz plus source and query registration — is
// one sample of setup_s: the work a later change could move out of the
// hot path and into start-up.
func setUp(ctx context.Context, ev env, w workload) (*child, float64, error) {
	start := time.Now()
	c, err := startServer(ctx, ev, w.durable)
	if err != nil {
		return nil, 0, err
	}
	if err := c.register(w); err != nil {
		c.kill()
		return nil, 0, err
	}
	return c, time.Since(start).Seconds(), nil
}

// reader is the control-plane load of durable_readers: GETs that take the
// same per-query lock the ingest path holds, round-robin at a fixed rate.
func reader(ctx context.Context, c *child, query string, every time.Duration) []time.Duration {
	paths := []string{
		"/api/queries/" + query,
		"/queries/" + query + "/results?last=256",
		"/metrics",
		"/api/stats?window=10s",
	}
	var lat []time.Duration
	t := time.NewTicker(every)
	defer t.Stop()
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return lat
		case <-t.C:
		}
		start := time.Now()
		if _, err := c.getBody(paths[i%len(paths)]); err == nil {
			lat = append(lat, time.Since(start))
		}
	}
}

// runWorkload splits the measured phase over opt.rounds fresh servers and
// combines them: medians for what a process decides (set-up time, CPU per
// tuple; the mean for peak memory), pooled sums for what the stream decides.
func runWorkload(ctx context.Context, ev env, w workload, opt options) (*result, error) {
	res := &result{workload: w.name, correct: true, e2e: map[string]float64{}}
	var setup, cpu, rss []float64
	var applied, shed int64
	var stream streamSums
	// Set-up is cheap to repeat and its time wanders (the first journal
	// fsync waits on the disk), so besides the rounds' own set-ups the run
	// takes extra samples from servers it starts, registers and stops,
	// before the harness has anything else to do.
	for i := 0; i < opt.setupExtra; i++ {
		c, s, err := setUp(ctx, ev, w)
		if err != nil {
			return nil, err
		}
		if err := c.stop(); err != nil {
			return nil, err
		}
		setup = append(setup, s)
	}
	spare := maxDiscarded
	for k := 0; k < opt.rounds; k++ {
		r, err := runRound(ctx, ev, w, opt, k)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", k+1, err)
		}
		if len(r.disturbed) > 0 {
			discard := spare > 0 && (r.failed > 0 || len(r.mismatch) > 0)
			fate := map[bool]string{true: "discarded and repeated", false: "kept"}[discard]
			fmt.Fprintf(os.Stderr, "%s: round %d disturbed, %d operations failed, %s: %s\n",
				w.name, k+1, r.failed, fate, strings.Join(r.disturbed, "; "))
			if discard {
				spare--
				k--
				continue
			}
		}
		fmt.Fprintf(os.Stderr, "%s: round %d: set-up %.4f s, %.0f tuples/cpu-s (%.0f x core speed scale %.3f), peak %.1f MB\n",
			w.name, k+1, r.setupS, r.perCPU, r.perCPU/r.calib, r.calib, r.rss)
		setup, cpu, rss = append(setup, r.setupS), append(cpu, r.perCPU), append(rss, r.rss)
		applied, shed = applied+r.applied, shed+r.shed
		res.attempted, res.failed = res.attempted+r.attempted, res.failed+r.failed
		res.mismatch = append(res.mismatch, r.mismatch...)
		stream.add(r.stream)
		res.layer = r.layer
	}
	res.correct = len(res.mismatch) == 0
	sm := stream.metrics()
	res.latencySamples, res.windows = sm.latencySamples, sm.windows
	res.e2e["setup_s"] = stats.Percentile(setup, 0.5)
	res.e2e["tuples_per_cpu_s"] = stats.Percentile(cpu, 0.5)
	res.e2e["delivered_pct"] = 100
	if applied+shed > 0 {
		res.e2e["delivered_pct"] = 100 * float64(applied) / float64(applied+shed)
	}
	res.e2e["result_latency_ms_p50"] = sm.latencyP50
	res.e2e["result_latency_ms_p95"] = sm.latencyP95
	res.e2e["quality_err_mean_pct"] = sm.errMeanPct
	res.e2e["quality_ok_pct"] = sm.okPct
	// Mean, not median: a server's peak lands on one of two levels (which
	// snapshot or collection the phase ended on), and the median of five
	// flips between them from run to run.
	var rssSum float64
	for _, v := range rss {
		rssSum += v
	}
	res.e2e["rss_peak_mb"] = rssSum / float64(len(rss))
	return res, nil
}

// runRound drives the workload once, end to end, against a fresh server:
// set up, generate, pace (warm-up then measured phase), drain, check,
// stop. A traced round adds the live scrape, the flood and the layer
// replay.
func runRound(ctx context.Context, ev env, w workload, opt options, k int) (*round, error) {
	seconds := opt.seconds / float64(opt.rounds)
	c, setupS, err := setUp(ctx, ev, w)
	if err != nil {
		return nil, err
	}
	defer c.kill() // no-op after the graceful stop below

	var disturbed []string

	// Idle check before any load, once per run.
	var idlePct float64
	if k == 0 {
		cpu0, err := c.cpuSeconds()
		if err != nil {
			return nil, err
		}
		if err := sleepUntil(ctx, time.Now().Add(opt.idleWindow)); err != nil {
			return nil, err
		}
		cpu1, err := c.cpuSeconds()
		if err != nil {
			return nil, err
		}
		idlePct = 100 * (cpu1 - cpu0) / opt.idleWindow.Seconds()
		if idlePct > maxIdleCPUPct {
			disturbed = append(disturbed, fmt.Sprintf("server burns %.1f%% CPU before any load (limit %.0f%%)", idlePct, maxIdleCPUPct))
		}
	}

	// Inputs and ground truth, made while the server idles: it never sees
	// anything but the generated bytes. (Set-up ran first so that its time
	// is the server's, not that of a harness busy generating.)
	feeds := make(map[string]*feed, len(w.sources))
	for i, s := range w.sources {
		seed := opt.seed*1_000_003 + uint64(k)*104_729 + uint64(i)*7919
		feeds[s.name] = buildFeed(s, seed, opt.warm+seconds, opt.scale, opt.trace)
	}
	refs := make([]*reference, 0, len(w.queries))
	for _, q := range w.queries {
		ref, err := runReference(q, feeds[q.source])
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}

	if deg, err := c.readyDegraded(); err != nil {
		return nil, err
	} else if len(deg) > 0 {
		disturbed = append(disturbed, fmt.Sprintf("/readyz degraded before load: %v", deg))
	}

	conns := make([]*conn, len(w.sources))
	for i, s := range w.sources {
		if conns[i], err = dialSource(c.ingest, s.name); err != nil {
			return nil, err
		}
		defer conns[i].c.Close()
	}

	// The harness's own collector must not run beside the paced phase: its
	// idle-priority workers would take the server's core. Collect now,
	// then hold collection off until the load is sent (the generator
	// allocates next to nothing).
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	restoreGC := func() { debug.SetGCPercent(gcPercent) }
	defer restoreGC() // error paths; harmless after the call below

	// The calibrator takes the server CPU's idle time for as long as the
	// load is paced (calib.go).
	cal, err := startCalibrator(ev.cpus)
	if err != nil {
		calibWarn.Do(func() {
			fmt.Fprintln(os.Stderr, "aqbench: no calibrator, tuples_per_cpu_s is not scaled to the core's speed:", err)
		})
	}
	defer cal.stop() // error paths; the measured phase's end stops it first

	// Paced phase: one generator goroutine per connection on a shared
	// open-loop schedule.
	start := time.Now().Add(20 * time.Millisecond)
	warmEnd := start.Add(time.Duration(opt.warm * float64(time.Second)))
	measEnd := warmEnd.Add(time.Duration(seconds * float64(time.Second)))
	type paceOut struct {
		lags []time.Duration
		err  error
	}
	paced := make([]paceOut, len(conns))
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paced[i].lags, paced[i].err = conns[i].pace(feeds[w.sources[i].name], start)
		}(i)
	}
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	var readLat []time.Duration
	var sideWG sync.WaitGroup
	if w.durable {
		sideWG.Add(1)
		go func() {
			defer sideWG.Done()
			readLat = reader(loadCtx, c, w.queries[0].name, 20*time.Millisecond)
		}()
	}

	if err := sleepUntil(ctx, warmEnd); err != nil {
		return nil, err
	}
	e0, err := readEdge(c, w)
	if err != nil {
		return nil, err
	}
	cal0 := cal.read()
	// A traced round spends the second half of the measured phase under
	// the 5 Hz scrape; the first half is its own untraced baseline.
	var eMid edge
	var live *liveTrace
	if opt.trace {
		if err := sleepUntil(ctx, warmEnd.Add(measEnd.Sub(warmEnd)/2)); err != nil {
			return nil, err
		}
		if eMid, err = readEdge(c, w); err != nil {
			return nil, err
		}
		live = &liveTrace{traceQuery: w.queries[0].name}
		sideWG.Add(1)
		go func() {
			defer sideWG.Done()
			live.poll(loadCtx, c, 200*time.Millisecond)
		}()
	}
	if err := sleepUntil(ctx, measEnd); err != nil {
		return nil, err
	}
	e1, err := readEdge(c, w)
	if err != nil {
		return nil, err
	}
	calib := cal0.scale(cal.read())
	cal.stop()
	rss, err := c.rssPeakMB()
	if err != nil {
		return nil, err
	}
	wg.Wait()
	stopLoad()
	sideWG.Wait()
	restoreGC()
	var lags []time.Duration
	for _, p := range paced {
		if p.err != nil {
			return nil, p.err
		}
		lags = append(lags, p.lags...)
	}
	lagP99, lagMax := percentileMS(lags, 0.99), percentileMS(lags, 1)
	if lagP99 > maxGenLagP99MS {
		disturbed = append(disturbed, fmt.Sprintf("generator ran %.1f ms late at p99 (limit %.0f ms, max %.1f ms)", lagP99, maxGenLagP99MS, lagMax))
	}

	// Close the stream, wait until everything sent is applied.
	for i, cn := range conns {
		if _, err := cn.c.Write(feeds[w.sources[i].name].closing); err != nil {
			return nil, err
		}
	}
	drainStart := time.Now()
	sts, err := awaitDrain(ctx, c, refs, 10*time.Second)
	if err != nil {
		return nil, err
	}
	drainMS := float64(time.Since(drainStart)) / float64(time.Millisecond)

	r := &round{setupS: setupS, perCPU: perCPU(e0, e1) * calib, calib: calib, rss: rss, disturbed: disturbed,
		applied: e1.tuples - e0.tuples, shed: e1.shed - e0.shed}
	for _, ref := range refs {
		v := checkIdentity(c, ref, sts[ref.def.name])
		r.attempted += v.sent + v.windowsWant
		r.failed += v.shed + v.unapplied + v.windowsBad
		if v.err != nil {
			r.mismatch = append(r.mismatch, v.err.Error())
		}
	}
	r.stream = measureStream(refs, int(opt.warm/tick.Seconds()+0.5))

	if opt.trace {
		r.layer = map[string]float64{
			"gen.lag_ms_p99":                lagP99,
			"gen.lag_ms_max":                lagMax,
			"aqserver.idle_cpu_pct":         idlePct,
			"aqserver.drain_ms":             drainMS,
			"aqserver.tracing_overhead_pct": 100 * (perCPU(e0, eMid)/perCPU(eMid, e1) - 1),
		}
		// API read latency: the reader's GETs where the workload has one,
		// the scraper's otherwise.
		if !w.durable {
			readLat = live.lat
		}
		r.layer["aqserver.api_read_ms_p50"] = percentileMS(readLat, 0.50)
		r.layer["aqserver.api_read_ms_p99"] = percentileMS(readLat, 0.99)
		if err := live.finish(c, w, eMid, r.layer); err != nil {
			return nil, err
		}
		if err := flood(ctx, c, w, conns, feeds, r.layer); err != nil {
			return nil, err
		}
	}

	if err := c.stop(); err != nil {
		return nil, err
	}

	if opt.trace {
		rp := newReplay(w, refs, feeds)
		if err := rp.run(ev.runDir, r.layer); err != nil {
			return nil, err
		}
		out := filepath.Join(ev.root, "bench", "out")
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		if err := rp.writeChromeTrace(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// awaitDrain polls until every query has applied (or shed) all it was
// sent and emitted the windows the closing heartbeat releases, or the
// deadline passes; the identity check then reports what is missing.
func awaitDrain(ctx context.Context, c *child, refs []*reference, limit time.Duration) (map[string]queryStatus, error) {
	deadline := time.Now().Add(limit)
	for {
		sts, err := c.statuses()
		if err != nil {
			return nil, err
		}
		done := true
		for _, ref := range refs {
			st := sts[ref.def.name]
			if st.TuplesIn+st.Shed < int64(len(ref.feed.tuples)) ||
				(st.Shed == 0 && st.Windows < int64(ref.rep.PreFlush)) {
				done = false
			}
		}
		if done || time.Now().After(deadline) {
			return sts, nil
		}
		if err := sleepUntil(ctx, time.Now().Add(2*time.Millisecond)); err != nil {
			return nil, err
		}
	}
}

// flood is the diagnostic overload phase: after the correctness check, so
// its sheds pollute nothing, every connection writes its flood tail as
// fast as the socket takes it.
func flood(ctx context.Context, c *child, w workload, conns []*conn, feeds map[string]*feed, out map[string]float64) error {
	before, err := readEdge(c, w)
	if err != nil {
		return err
	}
	var sentQ int64
	for _, q := range w.queries {
		sentQ += int64(feeds[q.source].floodN)
	}
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, cn := range conns {
		wg.Add(1)
		go func(i int, cn *conn) {
			defer wg.Done()
			_, errs[i] = cn.c.Write(feeds[w.sources[i].name].flood)
		}(i, cn)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("flood: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		after, err := readEdge(c, w)
		if err != nil {
			return err
		}
		got := after.tuples - before.tuples + after.shed - before.shed
		if got >= sentQ || time.Now().After(deadline) {
			el := after.at.Sub(before.at).Seconds()
			out["aqserver.flood_goodput_tuples_per_s"] = float64(after.tuples-before.tuples) / el
			out["aqserver.flood_shed_pct"] = 0
			if sentQ > 0 {
				out["aqserver.flood_shed_pct"] = 100 * float64(after.shed-before.shed) / float64(sentQ)
			}
			return nil
		}
		if err := sleepUntil(ctx, time.Now().Add(2*time.Millisecond)); err != nil {
			return err
		}
	}
}
