// Command aqserver runs a set of quality-driven continuous queries over
// paced synthetic streams and serves their live state over HTTP.
//
//	aqserver -addr :8080 -rate 20000
//
// Endpoints:
//
//	GET /healthz                      liveness
//	GET /readyz                       readiness + per-query health
//	GET /queries                      all query statuses
//	GET /queries/{name}               one query's status
//	GET /queries/{name}/results?last=N recent window results
//	GET /queries/{name}/trace         adaptation trace (K over time)
//	GET /debug/aq/trace?query=N&last=n flight-recorder events as Chrome trace JSON
//	GET /metrics                      Prometheus text format (with -obs)
//	GET /debug/pprof/...              Go profiling endpoints (with -obs)
//
// The streams are replayed at -rate tuples/second of wall time (the
// stream's internal timestamps are unchanged), so the statuses evolve
// while the server runs; each stream loops forever with re-based
// timestamps.
//
// Resilience: -chaos injects deterministic source faults (see
// resilience.ParseChaos for the spec syntax); transient source errors are
// retried with backoff behind a circuit breaker, and a terminally failed
// segment reconnects with the next one. A runtime query that falls a ring
// behind its source is lapped (fanout.ShedOldest); its sheds are counted in
// the status JSON and folded into realizedErrAdjusted. On SIGINT/SIGTERM
// the server drains: feed loops stop, every query's windows are flushed,
// /readyz flips to 503, and the process exits 0.
//
// Observability: -obs instruments every query with per-query Prometheus
// metrics (buffer slack/depth, controller adaptation, quality estimates,
// emission-latency histograms, shed/retry/panic counters) served at
// /metrics, and mounts net/http/pprof under /debug/pprof/. See
// docs/OBSERVABILITY.md for the metric catalog and a worked monitoring
// walkthrough.
//
// Tracing: every query always mirrors its pipeline lifecycle — the batches
// it is fed (ring publishes of a compiled-in stream, in its query's
// recorder; wire batches of a -listen source, by provenance mark), buffer
// inserts/releases, slack adaptations, window emits with provenance, ring-lap
// sheds, retries, panics — into a fixed-ring flight recorder
// (-trace-buf events). GET /debug/aq/trace?query=NAME&last=n serves the
// ring as Chrome trace-event JSON (load it in Perfetto), and -trace-dump
// DIR writes automatic dumps when a panic is isolated, a circuit breaker
// trips, or a query's quality-SLO watchdog detects realized error above
// its θ; violations are also listed in /readyz (qualityViolations) and —
// with -obs — exported as aq_quality_violation_total and
// aq_time_in_violation_ms. Logs are structured (log/slog) per query and
// mirrored into the recorder, so a dump interleaves pipeline events with
// the server's own account of them.
//
// Execution: every query is the same runner object around the cq engine,
// whether compiled in or registered at runtime over /api/queries (see
// buildRunner), and every runner has one ingest queue: a
// fan-out ring (internal/fanout) — its compiled-in stream's, or its network
// source's. Queries on one ring behind the same fixed disorder handler share
// one group (group.go): one subscription and one step core (cq.Exec) whose
// disorder pass feeds each query's window stage, one whole ring batch per
// step; every other query is a group of one. One of the compiled-in queries
// (user-sum-10s) is a GROUP BY query, whose window stage is one keyed
// operator instead of a plain one. -batch is the journal's group-commit
// cadence (-durable-dir).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/fanout"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/window"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers: without it a slow-loris connection holds a server goroutine
// forever.
const readHeaderTimeout = 10 * time.Second

// appConfig carries the flag-derived settings for one server instance.
type appConfig struct {
	n         int // tuples per stream segment
	rate      int // replay rate, tuples per wall-clock second
	batch     int // journal commit cadence, in items
	chaos     resilience.Chaos
	chaosOn   bool
	obs       bool         // serve /metrics + pprof and instrument every query
	traceBuf  int          // flight-recorder ring size per query (events)
	traceDump string       // directory for automatic flight-recorder dumps; empty = off
	log       *slog.Logger // base structured logger; nil = stderr text handler

	// Metric history behind /api/stats (-stats-step / -stats-retention;
	// zero picks the obs.History defaults of 1s / 10m) and the SLO
	// burn-rate budget (-slo-budget; <= 0 disables burn-rate readouts).
	// All only meaningful with -obs.
	statsStep      time.Duration
	statsRetention time.Duration
	sloBudget      float64

	// durableDir enables crash-consistent durability for non-grouped
	// queries: each gets a journal+snapshot directory under it and recovers
	// from prior state at startup. snapshotEvery is the snapshot cadence in
	// accepted items (0 = the durable package default behaviour: journal
	// only).
	durableDir    string
	snapshotEvery int64

	// Network control plane: listen is the TCP line-protocol ingest
	// address (-listen, empty = off), apiOn mounts /api/ for runtime
	// query management (-api), quotas bounds per-tenant consumption.
	// Either one brings up the fleet registry.
	listen string
	apiOn  bool
	quotas fleet.Quotas
}

// app ties the HTTP state, the query runners and their feed loops
// together so that startup and drain are testable without signals.
type app struct {
	cfg appConfig
	srv *server
	log *slog.Logger
	// runners are the compiled-in queries, one per stream, each fed by the
	// broadcast ring in rings; rings and loads are index-aligned with it.
	runners []*queryRunner
	rings   []*fanout.Broadcast
	loads   []func(seed uint64) gen.Config
	wg      sync.WaitGroup
	// groups places every runner, compiled-in or runtime, in the group
	// whose disorder pass feeds it (group.go).
	groups groupRegistry

	// Network control plane (nil without -listen/-api): the fleet
	// registry owns named sources and runtime query entries; netl is the
	// TCP ingest listener feeding it.
	fleet *fleet.Registry
	netl  *netstream.Listener
}

func newApp(cfg appConfig) (*app, error) {
	if cfg.log == nil {
		cfg.log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	a := &app{cfg: cfg, srv: newServer(), log: cfg.log}
	if cfg.obs {
		a.srv.reg = obs.NewRegistry()
		obs.RegisterRuntimeMetrics(a.srv.reg)
		a.srv.history = obs.NewHistory(a.srv.reg, obs.HistoryOptions{
			Step: cfg.statsStep, Retention: cfg.statsRetention})
		a.srv.sloBudget = cfg.sloBudget
		a.srv.history.Start() // drain stops it
	}
	if cfg.listen != "" || cfg.apiOn {
		a.fleet = fleet.NewRegistry(fleet.Options{Quotas: cfg.quotas, Metrics: a.srv.reg})
		a.srv.fleetTenants = a.fleet.Tenants
	}
	if cfg.apiOn {
		a.srv.api = a.apiHandler()
	}
	specs := []struct {
		name    string
		theta   float64
		spec    window.Spec
		agg     window.Factory
		grouped bool
		load    func(seed uint64) gen.Config
	}{
		{"temp-avg-10s", 0.005, window.Spec{Size: 10 * stream.Second, Slide: stream.Second},
			window.Avg(), false, func(seed uint64) gen.Config { return gen.Sensor(cfg.n, seed) }},
		{"volume-sum-30s", 0.02, window.Spec{Size: 30 * stream.Second, Slide: 5 * stream.Second},
			window.Sum(), false, func(seed uint64) gen.Config { return gen.SensorBursty(cfg.n, seed) }},
		{"calls-p95-60s", 0.05, window.Spec{Size: 60 * stream.Second, Slide: 10 * stream.Second},
			window.Quantile(0.95), false, func(seed uint64) gen.Config { return gen.CDR(cfg.n, seed) }},
		// GROUP BY demo: per-key sums over many keys behind a fixed 200ms
		// slack.
		{"user-sum-10s", 0, window.Spec{Size: 10 * stream.Second, Slide: stream.Second},
			window.Sum(), true, func(seed uint64) gen.Config {
				c := gen.Sensor(cfg.n, seed)
				c.NumKeys = 256
				return c
			}},
	}
	for _, sp := range specs {
		ring := fanout.New(fanout.Options{Ring: 64, BatchCap: 128})
		def := runnerDef{name: sp.name, theta: sp.theta, spec: sp.spec, agg: sp.agg, grouped: sp.grouped}
		if sp.grouped { // the others run the adaptive controller at sp.theta
			def.handler = buffer.NewKSlack(200 * stream.Millisecond)
		}
		q, err := a.buildRunner(def, nil, ring)
		if err != nil {
			return nil, err
		}
		a.srv.add(q)
		a.runners = append(a.runners, q)
		a.rings = append(a.rings, ring)
		a.loads = append(a.loads, sp.load)
	}
	return a, nil
}

// buildRunner constructs and wires one query runner. Compiled-in queries and
// runtime registrations both come through here and are the same object: a
// per-query flight recorder (always on: a fixed ring of recent events, served
// at /debug/aq/trace and dumped on panics, breaker trips and quality
// violations), the SLO watchdog for a declared θ, the
// per-query logger, the engine query (handler, window, aggregation core,
// tracer), -obs instruments, and durability when -durable-dir is set. The
// runner is placed in its group on the ring it reads — the network source
// src, or the compiled-in stream b — whose loop feeds it (cq.Group.Run). A nil
// def.handler picks the adaptive controller at def.theta. The opened
// durability log, if any, is the runner's dlog, which its finish closes.
func (a *app) buildRunner(def runnerDef, src *fleet.Source, b *fanout.Broadcast) (*queryRunner, error) {
	cfg := a.cfg
	rec := tracez.NewRecorder(cfg.traceBuf)
	def.tracer = tracez.New(rec, def.name)
	if def.theta > 0 {
		def.watchdog = tracez.NewWatchdog(def.theta, nil)
		def.tracer.SetWatchdog(def.watchdog)
	}
	def.log = slog.New(tracez.NewLogHandler(cfg.log.Handler(), rec)).With("query", def.name)
	if cfg.traceDump != "" {
		installDumpSink(def.tracer, cfg.traceDump, def.log)
	}
	def.reg = a.srv.reg
	if def.handler == nil {
		aq := core.NewAQKSlack(core.Config{Theta: def.theta, Spec: def.spec, Agg: def.agg})
		if def.reg != nil {
			aq.Instrument(core.NewTelemetry(def.reg, def.name))
		}
		def.handler = aq
	}
	switch {
	case cfg.durableDir == "":
	case def.grouped:
		def.log.Warn("durability is not supported for grouped queries; running without")
	default:
		opts := durable.Options{
			Dir:           filepath.Join(cfg.durableDir, def.name),
			CommitEvery:   cfg.batch,
			SnapshotEvery: cfg.snapshotEvery,
		}
		if def.reg != nil {
			opts.Metrics = durable.NewMetrics(def.reg, obs.L("query", def.name))
		}
		dlog, err := durable.Open(opts)
		if err != nil {
			return nil, fmt.Errorf("open durable dir for %s: %w", def.name, err)
		}
		def.dlog = dlog
	}

	q, err := a.groups.place(def, src, b)
	if err != nil {
		if def.dlog != nil {
			def.dlog.Close()
		}
		return nil, fmt.Errorf("recover %s: %w", def.name, err)
	}
	if def.watchdog != nil && def.reg != nil {
		registerBurnRate(def.reg, a.srv.history, a.srv.sloBudget, def.name)
	}
	return q, nil
}

// startFeeds launches one feed loop per stream — a producer publishing
// into the stream's broadcast ring, and its runner's group consuming it;
// the loops stop when ctx is cancelled.
func (a *app) startFeeds(ctx context.Context) {
	for i, q := range a.runners {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			fanoutFeedLoop(ctx, a.rings[i], q, a.loads[i], uint64(i+1), a.cfg, a.srv.reg)
		}()
	}
}

// startListener brings up the TCP line-protocol ingest listener over
// the fleet registry (-listen). Split from newApp so tests can boot on
// an ephemeral port.
func (a *app) startListener(addr string) error {
	open := func(source, _ string) (netstream.Sink, error) { return a.fleet.Open(source) }
	l, err := netstream.Listen(addr, open, a.log)
	if err != nil {
		return err
	}
	a.netl = l
	if a.srv.reg != nil {
		a.srv.reg.CounterFunc("aq_net_connections_accepted_total",
			"Ingest connections that completed the hello handshake.",
			func() float64 { return float64(l.Accepted()) })
		a.srv.reg.CounterFunc("aq_net_connections_rejected_total",
			"Ingest connections dropped for protocol or sink errors.",
			func() float64 { return float64(l.Rejected()) })
	}
	return nil
}

// drain performs the graceful-shutdown sequence: flip readiness, stop
// network ingest, end every runtime query, wait for the feed loops to
// stop, then flush every runner's open windows and close its durability
// log. It is idempotent because runner.finish is.
func (a *app) drain() {
	a.srv.draining.Store(true)
	for _, q := range a.runners {
		q.setHealth(healthDraining)
	}
	// Network side first: stop accepting and close ingest connections,
	// then close every source ring (runtime queries drain to a clean end
	// of stream) and stop the runtime query entries.
	if a.netl != nil {
		if err := a.netl.Close(); err != nil {
			a.log.Error("closing ingest listener", "err", err)
		}
	}
	if a.fleet != nil {
		a.fleet.Close()
	}
	a.wg.Wait()
	for _, q := range a.runners {
		q.finish()
	}
	if a.srv.history != nil {
		a.srv.history.Stop()
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	rate := flag.Int("rate", 20000, "replay rate in tuples per wall-clock second")
	n := flag.Int("n", 200000, "tuples per stream segment (looped)")
	chaosSpec := flag.String("chaos", "", "fault injection spec, e.g. seed=7,err=0.01,stall=0.001,stalldur=5ms,dup=0.005,spike=0.001 (empty = off)")
	batch := flag.Int("batch", 64, "journal group-commit cadence in items (with -durable-dir)")
	obsOn := flag.Bool("obs", false, "serve Prometheus /metrics and /debug/pprof, instrumenting every query")
	traceBuf := flag.Int("trace-buf", tracez.DefaultRecorderSize, "flight-recorder ring size per query, in events")
	traceDump := flag.String("trace-dump", "", "directory for automatic flight-recorder dumps (panic, breaker trip, quality violation); empty = off")
	durableDir := flag.String("durable-dir", "", "directory for crash-consistent journals+snapshots, one subdirectory per non-grouped query; empty = off")
	snapshotInterval := flag.Int64("snapshot-interval", 50000, "snapshot cadence in accepted items per query (with -durable-dir); 0 = journal only")
	listen := flag.String("listen", "", "TCP line-protocol ingest address (e.g. :9090); empty = off (see docs/API.md)")
	apiOn := flag.Bool("api", false, "mount /api/ for runtime CQL query management (see docs/API.md)")
	maxQueries := flag.Int("max-queries-per-tenant", 0, "runtime queries one tenant may keep registered; 0 = unlimited")
	maxIngest := flag.Int("max-ingest-per-sec", 0, "data tuples per second one source admits (token bucket, 1s burst); 0 = unlimited")
	statsStep := flag.Duration("stats-step", time.Second, "metric-history sampling interval behind /api/stats (with -obs)")
	statsRetention := flag.Duration("stats-retention", 10*time.Minute, "metric-history retention horizon behind /api/stats (with -obs)")
	sloBudget := flag.Float64("slo-budget", 0.01, "quality-SLO error budget as a fraction of wall time in violation; burn rate 1.0 = consuming exactly this (0 disables burn-rate readouts)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	fatal := func(err error) {
		logger.Error("aqserver: startup failed", "err", err)
		os.Exit(1)
	}
	chaos, err := resilience.ParseChaos(*chaosSpec)
	if err != nil {
		fatal(err)
	}
	if *maxQueries < 0 {
		fatal(fmt.Errorf("-max-queries-per-tenant must be >= 0, got %d", *maxQueries))
	}
	if *maxIngest < 0 {
		fatal(fmt.Errorf("-max-ingest-per-sec must be >= 0, got %d", *maxIngest))
	}
	cfg := appConfig{n: *n, rate: *rate, batch: *batch,
		chaos: chaos, chaosOn: chaos.Enabled(), obs: *obsOn,
		traceBuf: *traceBuf, traceDump: *traceDump, log: logger,
		durableDir: *durableDir, snapshotEvery: *snapshotInterval,
		listen: *listen, apiOn: *apiOn,
		quotas:    fleet.Quotas{MaxQueriesPerTenant: *maxQueries, MaxIngestPerSec: *maxIngest},
		statsStep: *statsStep, statsRetention: *statsRetention, sloBudget: *sloBudget}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	a, err := newApp(cfg)
	if err != nil {
		fatal(err)
	}
	a.startFeeds(ctx)
	if cfg.listen != "" {
		if err := a.startListener(cfg.listen); err != nil {
			fatal(err)
		}
		logger.Info("aqserver: ingest listening", "addr", a.netl.Addr().String())
	}

	httpSrv := &http.Server{Addr: *addr, Handler: a.srv.handler(), ReadHeaderTimeout: readHeaderTimeout}
	logger.Info("aqserver: listening", "queries", len(a.runners), "addr", *addr, "chaos", cfg.chaosOn)
	logger.Info("try: curl http://localhost" + *addr + "/queries")
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		logger.Info("aqserver: shutdown signal received, draining", "queries", len(a.runners))
		a.drain()
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			logger.Error("aqserver: http shutdown", "err", err)
		}
		logger.Info("aqserver: drained, exiting")
	}
}

// replaySegments replays generated stream segments forever at the
// configured wall rate, re-basing timestamps so event time keeps moving
// forward, and hands the items to deliver in batches of up to 128 (valid
// only during the call; false means ctx was cancelled). q is the query fed
// from this stream: its health and retries follow the segments. Chaos faults
// (when enabled) are injected per segment; transient source errors are
// retried with backoff behind a circuit breaker, and a terminal failure
// stalls the query briefly before reconnecting with the next segment. It
// returns when ctx is cancelled (false) or when the generator yields nothing
// (true): such a stream is over, and its query must be finished so its state
// is flushed and /readyz says "done", not limbo.
func replaySegments(ctx context.Context, q *queryRunner, load func(seed uint64) gen.Config, seed uint64, cfg appConfig, deliver func([]stream.Item) bool) (exhausted bool) {
	rate := cfg.rate
	if rate <= 0 {
		rate = 1
	}
	const batch = 128
	interval := time.Duration(batch) * time.Second / time.Duration(rate)
	retry := resilience.Retry{
		MaxAttempts: 6, BaseDelay: 20 * time.Millisecond, MaxDelay: time.Second, Seed: seed,
		BreakerThreshold: 8, BreakerCooldown: 2 * time.Second,
	}
	if tr := q.tracer; tr != nil {
		retry.OnRetry = func(attempt int, err error) { tr.Retry(0, attempt) }
		retry.OnBreakerTrip = func() { tr.BreakerTrip(0) }
	}
	// The feed begins past everything the query has applied — after a durable
	// recovery, the arrival clock the engine restored and advanced by its
	// replay — so a restarted feed never rewinds event time.
	var base stream.Time
	q.mu.Lock()
	if now := q.exec.Now(); now > 0 {
		base = now + stream.Second
	}
	q.mu.Unlock()
	buf := make([]stream.Item, 0, batch)
	for loop := uint64(0); ctx.Err() == nil; loop++ {
		tuples := load(seed + loop).Arrivals()
		if len(tuples) == 0 {
			q.log.Warn("generator yielded no tuples; marking the stream's query done", "segment", loop)
			return true
		}
		items := make([]stream.Item, len(tuples))
		var maxTS stream.Time
		for i, t := range tuples {
			t.TS += base
			t.Arrival += base
			if t.TS > maxTS {
				maxTS = t.TS
			}
			items[i] = stream.DataItem(t)
		}
		var src stream.ErrSource = stream.AsErrSource(stream.NewSliceSource(items))
		if cfg.chaosOn {
			ch := cfg.chaos
			ch.Seed = ch.Seed ^ (seed*0x9e3779b97f4a7c15 + loop) // distinct faults per segment, still deterministic
			src = resilience.NewFaultSource(src, ch)
		}
		rs := resilience.NewRetryingSource(ctx, src, retry)

		ticker := time.NewTicker(interval)
		sent, segmentOK := 0, true
		// flush delivers the batch in progress; false means ctx was cancelled.
		flush := func() bool {
			ok := len(buf) == 0 || deliver(buf)
			buf = buf[:0]
			return ok
		}
		for ctx.Err() == nil {
			it, ok, err := rs.NextErr()
			if err != nil && ctx.Err() == nil {
				// Terminal for this segment: the retry budget is spent or
				// the breaker is open. Reconnect by moving to the next
				// segment after a short stall — the paced-replay analogue
				// of re-dialing an upstream.
				segmentOK = false
				q.setHealth(healthStalled)
				q.log.Error("source failed; reconnecting", "segment", loop, "err", err)
				sleepCtx(ctx, time.Second)
			}
			if err != nil || !ok {
				break
			}
			buf = append(buf, it)
			sent++
			if len(buf) == batch {
				if !flush() {
					break
				}
				select {
				case <-ticker.C:
				case <-ctx.Done():
				}
			}
		}
		flush()
		ticker.Stop()
		q.addRetries(rs.Retries())
		if ctx.Err() != nil {
			return false
		}
		switch {
		case !segmentOK:
			// health stays stalled until the next segment feeds
		case rs.Retries() > 0:
			q.setHealth(healthDegraded)
		default:
			q.setHealth(healthFeeding)
		}
		base = maxTS + stream.Second
		q.log.Info("segment finished", "segment", loop, "items", sent, "rebase", int64(base))
	}
	return false
}

// sleepCtx waits for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
