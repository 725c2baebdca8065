package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/resilience"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// Per-query health states reported by /readyz and the status JSON.
const (
	healthFeeding  = "feeding"  // ingesting normally
	healthDegraded = "degraded" // ingesting, but retries/sheds/panics occurred
	healthStalled  = "stalled"  // source failed terminally; awaiting reconnect
	healthDraining = "draining" // shutdown in progress, windows being flushed
	healthDone     = "done"     // stream ended and windows were flushed
)

// runnerDef is what the server knows about a query beyond the engine's
// cq.AggQuery: how to report it (identity, window shape, declared quality
// bound) and what is wired around it (flight recorder, logger, metrics
// registry, durability log). newQueryRunner takes one of these plus the
// query itself.
type runnerDef struct {
	name  string
	theta float64 // declared quality bound (QUALITY); 0 for fixed-slack queries
	spec  window.Spec
	agg   window.Factory
	// fixedK is the slack reported as currentK when the handler is not the
	// adaptive controller (grouped queries, HANDLER kslack(...)).
	fixedK stream.Time

	// Grouped runners (GROUP BY key) hand their whole pipeline to
	// cq.RunConcurrent: shards window workers, batch-sized transport.
	grouped bool
	shards  int
	// batch is the worker drain batch: how many queued items one step may
	// apply (queued non-grouped runners), and the pipeline transport batch
	// (grouped). 0 behaves like 1 / the engine default.
	batch int

	// statement and tenant identify a runtime registration (api.go); empty
	// for compiled-in queries.
	statement string
	tenant    string

	// tracer mirrors the query's lifecycle into a flight recorder (see
	// trace.go) — the same tracer the AggQuery carries; watchdog turns θ
	// into live SLO verdicts. Both tolerate staying nil (tests run
	// untraced). log is the per-query structured logger, mirrored into the
	// flight recorder when tracing is on; nil means slog.Default.
	tracer   *tracez.Tracer
	watchdog *tracez.Watchdog
	log      *slog.Logger
	// reg receives the per-query instruments (obs.go); nil without -obs.
	reg *obs.Registry
	// dlog is the query's opened durability log; nil without -durable-dir
	// and for grouped queries and -fanout replicas (see durable.go).
	dlog *durable.QueryLog
}

// queryRunner is the server's driver around one continuous query: it owns
// the query's ingest path and its live bookkeeping — status counters,
// the ring of recent results, health, wire latency — while the engine
// executes. Non-grouped runners step a cq.Exec themselves under mu: whole
// ring batches when they have no queue of their own (runtime-registered
// queries: the fan-out ring is their ingest queue), the worker's drain
// batches when start() put a bounded queue in front (compiled-in feeds
// and -fanout replicas, which is where -overload applies). Grouped
// runners run cq.RunConcurrent over their queue. HTTP handlers read under
// the mutex.
type queryRunner struct {
	runnerDef

	// exec is the step core of a non-grouped runner; every call into it
	// happens under mu. query is a grouped runner's pipeline, launched by
	// startGrouped; telemetry its engine instruments (nil without -obs).
	exec      *cq.Exec
	query     *cq.AggQuery
	telemetry *cq.Telemetry

	// Ingest queue; nil until start()/startGrouped() is called.
	ingest     chan stream.Item
	workerDone chan struct{}
	policy     resilience.OverloadPolicy
	feedMaxTS  stream.Time // event-time clock, touched only by the feeder
	feedTSSet  bool
	stopOnce   sync.Once

	// panicOn is a test seam: when set, applying a matching item panics so
	// the runner's panic isolation can be exercised.
	panicOn func(stream.Item) bool

	// Host continuity across restarts (durable.go). feedBase is written
	// by the feeder at segment boundaries and read by the snapshot
	// decorator, hence atomic.
	recovery *recoveryStatus
	feedBase atomic.Int64

	mu      sync.Mutex
	results []window.Result // ring of recent results
	emitted int64
	// tuplesIn counts accepted tuples for grouped runners only (the feeder
	// counts them); non-grouped runners read the core's handler.
	tuplesIn    int64
	shed        int64
	retries     int64
	panics      int64
	latency     *stats.P2 // streaming p95 of result latency
	health      string
	done        bool
	journalErrs int64

	// emitLatency is the push-side latency histogram; nil without -obs
	// (see obs.go for the rest of the per-query instruments).
	emitLatency *obs.Histogram

	// Wire provenance (runtime queries over -listen sources): wireLat is
	// the per-source aq_wire_latency_ms histogram (nil without -obs or
	// for compiled-in queries); wireSendMS holds the client send time of
	// the provenance-marked batch being pumped into the runner, so
	// absorbOne can observe true client-send→emission latency. A ring
	// batch is stepped whole right after its mark is noted, so the
	// emissions it triggers are charged to its own mark. wallMS is the
	// wall-clock source, injectable by tests; nil means time.Now.
	wireLat    *obs.Histogram
	wireSendMS atomic.Int64
	wallMS     func() int64

	// shedExtra folds upstream losses of a runtime query — fan-out ring
	// laps and ingest-quota drops — into its shed accounting.
	shedExtra func() int64
}

const resultRing = 256

// newQueryRunner builds the runner for query, which must have no source
// of its own unless it is grouped (a grouped query pulls the runner's
// ingest queue; see buildRunner). A non-grouped runner gets its step core
// here — including, when def.dlog holds prior state, crash recovery: the
// journal suffix is replayed under the live panic policy (an item that
// panicked before the crash is in the journal, and must not take the
// restart down with it), and replayed emissions land in the result ring
// like live ones.
func newQueryRunner(def runnerDef, query *cq.AggQuery) (*queryRunner, error) {
	q := &queryRunner{runnerDef: def, latency: stats.NewP2(0.95), health: healthFeeding}
	if q.log == nil {
		q.log = slog.Default()
	}
	// The runner keeps its own result ring, and a query that never ends
	// must not grow a report.
	query.DiscardReport()
	if q.grouped {
		if q.reg != nil {
			q.telemetry = cq.NewTelemetry(q.reg, q.name, q.spec)
			query.Instrument(q.telemetry)
		}
		q.query = query.SinkKeyed(q.absorbKeyed)
	} else {
		if q.reg != nil {
			q.emitLatency = q.reg.Histogram("aq_emit_latency_ms",
				"Window result emission latency in stream-time ms (emission position minus window end).",
				cq.LatencyBucketsFor(q.spec), obs.L("query", q.name))
		}
		var prior *durable.Recovery
		if q.dlog != nil {
			prior = q.resumeCounters()
			query.Durable(cq.Durable{Log: q.dlog, Decorate: q.decorateSnapshot})
		}
		exec, err := cq.NewExec(query, q.absorbOne)
		if err != nil {
			return nil, err
		}
		q.exec = exec
		for !q.stepIsolated(nil, true) {
		}
		q.noteRecovery(prior)
	}
	if q.reg != nil {
		q.instrument(q.reg)
	}
	return q, nil
}

// start switches the runner to queued ingestion: feed enqueues onto a
// bounded channel of the given capacity and a worker goroutine steps the
// core with up to batch queued items at a time, so a backlogged queue is
// absorbed in batches instead of paying a lock round-trip per tuple.
// policy decides what a full queue does to data tuples (heartbeats always
// block — they are progress signals and cheap).
func (q *queryRunner) start(capacity int, policy resilience.OverloadPolicy) {
	batch := q.batch
	if batch <= 0 {
		batch = 1
	}
	q.openQueue(capacity, policy)
	go func() {
		defer close(q.workerDone)
		buf := make([]stream.Item, 0, batch)
		for it := range q.ingest {
			buf = append(buf[:0], it)
		drain:
			for len(buf) < batch {
				select {
				case more, ok := <-q.ingest:
					if !ok {
						break drain
					}
					buf = append(buf, more)
				default:
					break drain
				}
			}
			q.step(buf)
		}
	}()
}

// openQueue creates the bounded ingest queue. The runner may already be
// visible to scrapes (the queue-depth gauge reads q.ingest under mu), so
// the channel is published under the lock.
func (q *queryRunner) openQueue(capacity int, policy resilience.OverloadPolicy) {
	if capacity <= 0 {
		capacity = 1024
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.policy = policy
	q.ingest = make(chan stream.Item, capacity)
	q.workerDone = make(chan struct{})
}

// startGrouped launches a grouped runner's pipeline over a bounded ingest
// queue: the engine's goroutines own all operator state and push merged
// keyed results back through absorbKeyed. finish closes the channel, which
// flushes the pipeline's windows through the same sink.
func (q *queryRunner) startGrouped(capacity int, policy resilience.OverloadPolicy) {
	q.openQueue(capacity, policy)
	go func() {
		defer close(q.workerDone)
		if _, err := q.query.RunConcurrent(context.Background(), nil); err != nil {
			q.log.Error("grouped pipeline failed", "err", err)
			q.mu.Lock()
			q.panics++
			q.health = healthStalled
			q.mu.Unlock()
		}
	}()
}

// feed pushes one item into the pipeline, applying the overload policy
// when the ingest queue is full. Without a queue it steps inline.
func (q *queryRunner) feed(it stream.Item) {
	if q.ingest == nil {
		q.step([]stream.Item{it})
		return
	}
	late := false
	if !it.Heartbeat {
		late = q.feedTSSet && it.Tuple.TS < q.feedMaxTS
		if !q.feedTSSet || it.Tuple.TS > q.feedMaxTS {
			q.feedMaxTS, q.feedTSSet = it.Tuple.TS, true
		}
	}
	canShed := !it.Heartbeat &&
		(q.policy == resilience.ShedNewest || (q.policy == resilience.ShedLate && late))
	if canShed {
		select {
		case q.ingest <- it:
		default:
			q.noteShed()
			return
		}
	} else {
		q.ingest <- it
	}
	// Grouped runners hand operator state to the engine, so the accepted-
	// tuple counter is the feeder's job.
	if q.grouped && !it.Heartbeat {
		q.mu.Lock()
		q.tuplesIn++
		q.mu.Unlock()
	}
}

// feedBatch hands over a batch borrowed from a fan-out ring (valid until
// the caller releases it). A runner without a queue steps it whole — the
// ring is its ingest queue; a queued runner copies it in item by item,
// which is where its overload policy applies.
func (q *queryRunner) feedBatch(items []stream.Item) {
	if q.ingest == nil {
		q.step(items)
		return
	}
	for _, it := range items {
		q.feed(it)
	}
}

// step is the server's policy around Exec.Step: apply one batch under the
// runner lock, then group-commit the journal — a live server bounds crash
// loss by the batch, not by the log's item cadence. A panic (a poisoned
// tuple, an operator bug) is isolated to the item in flight: it is
// counted, the runner is marked degraded, and the step is resumed behind
// that item. A durability error degrades the query (loudly) rather than
// stopping ingestion: availability over durability for a live dashboard
// server.
func (q *queryRunner) step(batch []stream.Item) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.panicOn != nil {
		// Test seam armed: one item per step, so an injected panic costs
		// exactly the item it names.
		for i := range batch {
			q.stepIsolated(batch[i:i+1], false)
		}
	} else {
		for resume := false; !q.stepIsolated(batch, resume); resume = true {
		}
	}
	if q.dlog != nil {
		if err := q.dlog.Commit(); err != nil {
			q.journalErrs++
			q.log.Error("journal commit failed", "err", err)
		}
	}
}

// stepIsolated runs Step — or Resume: behind a panic, and for the recovery
// replay — and reports whether it ran to completion; q.mu must be held
// (newQueryRunner calls it before the runner is shared).
func (q *queryRunner) stepIsolated(batch []stream.Item, resume bool) (completed bool) {
	defer func() {
		if p := recover(); p != nil {
			q.panics++
			if q.health == healthFeeding {
				q.health = healthDegraded
			}
			stage, it := q.exec.InFlight()
			q.tracer.Panic(stage, int64(q.exec.Now()), fmt.Sprint(p))
			q.log.Error("panic isolated while processing item", "stage", stage.String(), "item", fmt.Sprint(it), "panic", fmt.Sprint(p))
		}
	}()
	if resume {
		q.exec.Resume()
		return true
	}
	if q.panicOn != nil && q.panicOn(batch[0]) {
		panic("injected processing fault")
	}
	if err := q.exec.Step(batch); err != nil {
		q.journalErrs++
		if q.health == healthFeeding {
			q.health = healthDegraded
		}
		q.log.Error("durability failure; the batch was applied without it", "err", err)
	}
	return true
}

// finish drains the ingest queue, flushes the pipeline and marks the
// runner done. It is idempotent and must only be called after the feeder
// has stopped.
func (q *queryRunner) finish() {
	q.stopOnce.Do(func() {
		if q.ingest != nil {
			close(q.ingest)
			<-q.workerDone
		}
		q.mu.Lock()
		defer q.mu.Unlock()
		// A grouped runner's engine flushed every window through
		// absorbKeyed while its goroutines wound down; only the state flip
		// is left.
		if q.exec != nil {
			if err := q.exec.Finish(); err != nil {
				q.log.Error("journal commit on finish failed", "err", err)
			}
		}
		q.done = true
		q.health = healthDone
	})
}

// absorbOne is the core's result sink: it folds one emitted result into
// the ring/latency state. q.mu is held by whoever is stepping the core.
func (q *queryRunner) absorbOne(r window.Result) {
	q.emitted++
	q.latency.Add(float64(r.Latency()))
	if q.emitLatency != nil {
		q.emitLatency.Observe(float64(r.Latency()))
	}
	q.observeWireLatency()
	q.results = append(q.results, r)
	if len(q.results) > resultRing {
		q.results = q.results[len(q.results)-resultRing:]
	}
}

// absorbKeyed is the grouped pipeline's result sink, called from the
// engine's merger goroutine.
func (q *queryRunner) absorbKeyed(kr window.KeyedResult) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.absorbOne(kr.Result)
}

// adaptive returns the quality-driven controller behind a non-grouped
// runner, or nil when the query buffers with a fixed or plain handler;
// q.mu must be held to read its state.
func (q *queryRunner) adaptive() *core.AQKSlack {
	if q.exec == nil {
		return nil
	}
	h, _ := q.exec.Handler().(*core.AQKSlack)
	return h
}

// tuplesInLocked is the accepted-tuple count; q.mu must be held.
func (q *queryRunner) tuplesInLocked() int64 {
	if q.exec == nil {
		return q.tuplesIn
	}
	return q.exec.Handler().Stats().Inserted
}

// wallNowMS reads the runner's wall clock (injectable for tests).
func (q *queryRunner) wallNowMS() int64 {
	if q.wallMS != nil {
		return q.wallMS()
	}
	return time.Now().UnixMilli()
}

// noteWireBatch records a provenance-marked transport batch arriving at
// the runner: a wire-batch event in the flight recorder (replayed ids
// show up as duplicate Win values — the visible shape of an
// at-least-once reconnect) and the clock base absorbOne charges the
// batch's emissions against.
func (q *queryRunner) noteWireBatch(p stream.BatchProv, n int) {
	if !p.Valid() {
		return
	}
	q.tracer.WireBatch(q.wallNowMS(), p.BatchID, n, p.SendMS)
	q.wireSendMS.Store(p.SendMS)
}

// observeWireLatency publishes one emission's client-send→emission
// latency against the mark of the batch being stepped; a no-op without -obs, for
// compiled-in queries, and before the first marked batch. q.mu is held
// by the caller (only atomics and the histogram are touched).
func (q *queryRunner) observeWireLatency() {
	if q.wireLat == nil {
		return
	}
	send := q.wireSendMS.Load()
	if send == 0 {
		return
	}
	if d := q.wallNowMS() - send; d >= 0 {
		q.wireLat.Observe(float64(d))
	}
}

// shedTotalLocked returns the query's full shed count: overload-policy
// drops plus — for runtime queries riding a shared ring — upstream
// losses (ring laps, ingest-quota drops) charged via shedExtra. q.mu
// must be held (shedExtra itself only reads atomics).
func (q *queryRunner) shedTotalLocked() int64 {
	s := q.shed
	if q.shedExtra != nil {
		s += q.shedExtra()
	}
	return s
}

func (q *queryRunner) noteShed() {
	q.mu.Lock()
	q.shed++
	if q.health == healthFeeding {
		q.health = healthDegraded
	}
	q.mu.Unlock()
	// Grouped runners share the engine telemetry's shed counter (the
	// engine itself never sheds here — its overload policy is unset).
	if q.telemetry != nil {
		q.telemetry.Shed.Inc()
	}
}

// addRetries folds a feed segment's retry count into the runner total.
func (q *queryRunner) addRetries(n int64) {
	if n <= 0 {
		return
	}
	q.mu.Lock()
	q.retries += n
	q.mu.Unlock()
}

// setHealth moves the runner between feeder-driven states. Terminal
// states win: done is never overwritten, and draining only yields to
// done (the feeder may still be finishing its last segment).
func (q *queryRunner) setHealth(h string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.health == healthDone || (q.health == healthDraining && h != healthDone) {
		return
	}
	q.health = h
}

func (q *queryRunner) healthState() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.health
}

// status is the JSON shape of one query's live state.
type status struct {
	Name        string  `json:"name"`
	Theta       float64 `json:"theta"`
	WindowSize  int64   `json:"windowSize"`
	WindowSlide int64   `json:"windowSlide"`
	Aggregate   string  `json:"aggregate"`
	TuplesIn    int64   `json:"tuplesIn"`
	Windows     int64   `json:"windowsEmitted"`
	K           int64   `json:"currentK"`
	RealizedErr float64 `json:"realizedErrEWMA"`
	// RealizedErrAdj folds shed tuples into the realized-error estimate
	// (metrics.ShedAdjustedErr): a shedding run reports honestly degraded
	// quality even though the estimator never saw the dropped tuples.
	RealizedErrAdj float64 `json:"realizedErrAdjusted"`
	EstErr         float64 `json:"lastEstimatedErr"`
	Adaptations    int     `json:"adaptations"`
	LatencyP95     float64 `json:"latencyP95"`
	Health         string  `json:"health"`
	Shed           int64   `json:"shedTuples"`
	Retries        int64   `json:"sourceRetries"`
	Panics         int64   `json:"stagePanics"`
	Done           bool    `json:"done"`
	Grouped        bool    `json:"grouped,omitempty"`
	Shards         int     `json:"shards,omitempty"`
	// Statement and Tenant identify runtime-registered queries (api.go);
	// empty for compiled-in ones.
	Statement string `json:"statement,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	// Durability (present only with -durable-dir on a non-grouped query).
	Durable     bool            `json:"durable,omitempty"`
	JournalErrs int64           `json:"journalErrors,omitempty"`
	Recovery    *recoveryStatus `json:"recovery,omitempty"`
}

func (q *queryRunner) status() status {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := status{
		Name:        q.name,
		Theta:       q.theta,
		WindowSize:  q.spec.Size,
		WindowSlide: q.spec.Slide,
		Aggregate:   q.agg.Name,
		TuplesIn:    q.tuplesInLocked(),
		Windows:     q.emitted,
		LatencyP95:  q.latency.Value(),
		Health:      q.health,
		Shed:        q.shedTotalLocked(),
		Retries:     q.retries,
		Panics:      q.panics,
		Done:        q.done,
		Grouped:     q.grouped,
		Shards:      q.shards,
		Durable:     q.dlog != nil,
		JournalErrs: q.journalErrs,
		Recovery:    q.recovery,
		Statement:   q.statement,
		Tenant:      q.tenant,
	}
	if h := q.adaptive(); h != nil {
		qs := h.Quality()
		st.K = h.K()
		st.RealizedErr = qs.RealizedErrEWMA
		st.RealizedErrAdj = metrics.ShedAdjustedErr(qs.RealizedErrEWMA, st.Shed, st.TuplesIn)
		st.EstErr = qs.LastEstErr
		st.Adaptations = qs.Adaptations
	} else {
		// Fixed-slack runners: quality fields stay zero because there is no
		// adaptive estimator to read.
		st.K = int64(q.fixedK)
	}
	return st
}

func (q *queryRunner) recentResults(n int) []window.Result {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n <= 0 || n > len(q.results) {
		n = len(q.results)
	}
	out := make([]window.Result, n)
	copy(out, q.results[len(q.results)-n:])
	return out
}

func (q *queryRunner) trace() []core.KSample {
	q.mu.Lock()
	defer q.mu.Unlock()
	h := q.adaptive()
	if h == nil {
		return nil
	}
	tr := h.Trace()
	out := make([]core.KSample, len(tr))
	copy(out, tr)
	return out
}

// server exposes a set of query runners over HTTP.
type server struct {
	mu       sync.RWMutex
	queries  map[string]*queryRunner
	draining atomic.Bool
	reg      *obs.Registry // non-nil with -obs: serves /metrics and pprof
	// api is the runtime query-management handler (api.go); nil without
	// -api.
	api http.Handler
	// history is the metric time-series store behind /api/stats and the
	// SLO burn-rate gauges; nil without -obs.
	history *obs.History
	// sloBudget is the error-budget fraction the burn-rate evaluation
	// divides by (-slo-budget flag); <= 0 disables burn-rate readouts.
	sloBudget float64
	// fleetTenants reports live runtime-query counts per tenant from the
	// fleet registry (fleet.Registry.Tenants); nil without -listen/-api.
	fleetTenants func() map[string]int
}

func newServer() *server {
	return &server{queries: make(map[string]*queryRunner)}
}

func (s *server) add(q *queryRunner) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries[q.name] = q
}

// remove drops a runtime-deregistered query from the routing table. The
// runner object stays valid for anyone still holding it; only lookup
// stops resolving.
func (s *server) remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.queries, name)
}

func (s *server) get(name string) (*queryRunner, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	q, ok := s.queries[name]
	return q, ok
}

// sortedNames returns the query names in stable order.
func (s *server) sortedNames() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.queries))
	for n := range s.queries {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// readiness is the JSON shape of /readyz.
type readiness struct {
	Ready    bool              `json:"ready"`
	Draining bool              `json:"draining"`
	Queries  map[string]string `json:"queries"`
	// QualityViolations lists queries whose realized error is currently
	// above their declared θ (the quality-SLO watchdog's live verdict).
	// A degraded state, not an unready one: the queries still serve,
	// just honestly worse.
	QualityViolations []string `json:"qualityViolations,omitempty"`
	// Recovered reports, per durable query that found prior state at
	// startup, what its recovery did — proof the restart resumed instead
	// of starting over.
	Recovered map[string]*recoveryStatus `json:"recovered,omitempty"`
	// Degraded explains, per degraded query, *why* it is degraded:
	// health-state causes, a live quality violation, and — when both the
	// fast and slow SLO burn-rate windows run hot — the burn readings
	// themselves. Operators get reasons, not just a one-word state.
	Degraded map[string][]string `json:"degraded,omitempty"`
}

// readiness reports per-query health. The server is ready when it is not
// draining and no query is stalled; degraded queries keep it ready (they
// are still serving, just honestly worse).
func (s *server) readiness() readiness {
	r := readiness{Ready: true, Draining: s.draining.Load(), Queries: make(map[string]string)}
	if r.Draining {
		r.Ready = false
	}
	for _, n := range s.sortedNames() {
		q, ok := s.get(n)
		if !ok {
			continue
		}
		h := q.healthState()
		r.Queries[n] = h
		if h == healthStalled {
			r.Ready = false
		}
		var reasons []string
		if h == healthDegraded {
			reasons = append(reasons, "retries, sheds or panics occurred while feeding")
		}
		if q.watchdog.InViolation() {
			r.QualityViolations = append(r.QualityViolations, n)
			reasons = append(reasons, "realized error currently above the declared θ")
		}
		if fast, slow, ok := s.burnRates(n); ok && fast >= 1 && slow >= 1 {
			reasons = append(reasons, fmt.Sprintf(
				"SLO burn rate %.2fx (fast) / %.2fx (slow) — error budget burning faster than allotted", fast, slow))
		}
		if len(reasons) > 0 {
			if r.Degraded == nil {
				r.Degraded = make(map[string][]string)
			}
			r.Degraded[n] = reasons
		}
		if q.recovery != nil {
			if r.Recovered == nil {
				r.Recovered = make(map[string]*recoveryStatus)
			}
			r.Recovered[n] = q.recovery
		}
	}
	return r
}

// handler builds the HTTP routing table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		rd := s.readiness()
		if !rd.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeJSON(w, rd)
	})
	mux.HandleFunc("/queries", func(w http.ResponseWriter, r *http.Request) {
		names := s.sortedNames()
		out := make([]status, 0, len(names))
		for _, n := range names {
			if q, ok := s.get(n); ok {
				out = append(out, q.status())
			}
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/queries/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/queries/")
		parts := strings.SplitN(rest, "/", 2)
		q, ok := s.get(parts[0])
		if !ok {
			http.Error(w, fmt.Sprintf("unknown query %q", parts[0]), http.StatusNotFound)
			return
		}
		sub := ""
		if len(parts) == 2 {
			sub = parts[1]
		}
		switch sub {
		case "":
			writeJSON(w, q.status())
		case "results":
			n, _ := strconv.Atoi(r.URL.Query().Get("last"))
			writeJSON(w, resultsJSON(q.recentResults(n)))
		case "trace":
			writeJSON(w, q.trace())
		default:
			http.Error(w, "unknown endpoint", http.StatusNotFound)
		}
	})
	mux.HandleFunc("/debug/aq/trace", s.handleTrace)
	if s.history != nil {
		// Exact pattern: wins over the /api/ prefix route below, so the
		// stats plane works even without -api.
		mux.HandleFunc("/api/stats", s.instrumentRoute("/api/stats", s.handleStats))
	}
	if s.api != nil {
		mux.Handle("/api/", s.instrumentAPI(s.api))
	}
	if s.reg != nil {
		mountObs(mux, s.reg)
	}
	return mux
}

// resultJSON is the wire form of a window result.
type resultJSON struct {
	Window  int64   `json:"window"`
	Start   int64   `json:"start"`
	End     int64   `json:"end"`
	Value   float64 `json:"value"`
	Count   int64   `json:"count"`
	Latency int64   `json:"latency"`
}

func resultsJSON(rs []window.Result) []resultJSON {
	out := make([]resultJSON, len(rs))
	for i, r := range rs {
		out[i] = resultJSON{
			Window: r.Idx, Start: r.Start, End: r.End,
			Value: r.Value, Count: r.Count, Latency: r.Latency(),
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
