package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/stats"
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

// runnerDef is what the server knows about a query: what the engine runs
// (disorder handler, window shape, aggregate), how to report it (identity,
// declared quality bound) and what is wired around it (flight recorder,
// logger, metrics registry, durability log). newQueryRunner takes one.
type runnerDef struct {
	name    string
	theta   float64 // declared quality bound (QUALITY); 0 for fixed-slack queries
	handler buffer.Handler
	spec    window.Spec
	agg     window.Factory
	// grouped (GROUP BY key) picks the keyed window operator: one set of
	// windows per tuple key.
	grouped bool

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
	// reg receives the per-query instruments; nil without -obs. telem is the
	// engine's set (cq.NewTelemetry, made by newQueryRunner), which the step
	// core updates; obs.go registers what only the server knows.
	reg   *obs.Registry
	telem *cq.Telemetry
	// dlog is the query's opened durability log, which the engine journals,
	// snapshots and recovers from, and finish closes; nil without
	// -durable-dir and for grouped queries.
	dlog *durable.QueryLog
	// wireLat is the per-source aq_wire_latency_ms histogram of a runtime
	// query over a -listen source (nil without -obs and for compiled-in
	// queries): see observeWireLatency.
	wireLat *obs.Histogram
}

// query is the engine query def runs: its handler, window, tracer,
// telemetry and journal, the report discarded (the runner keeps its own ring
// of recent results, and a query that never ends must not grow a report).
func (d *runnerDef) query() *cq.AggQuery {
	query := cq.New(nil).Handle(d.handler).Window(d.spec, d.agg).Trace(d.tracer).Instrument(d.telem).Durable(d.dlog).DiscardReport()
	if d.grouped {
		query.GroupBy() // absorbOne sees each keyed result's embedded Result
	}
	return query
}

// queryRunner is the server's driver around one continuous query: it owns
// the query's live bookkeeping — status counters, the ring of recent results,
// health, wire latency — while the engine executes. What survives a restart
// is the engine's own state: the window counts and the arrival clock come
// back with a durable query's snapshot and its replay. Every runner is in a
// group (group.go): a cq.Group, whose loop steps one whole ring batch at a
// time for every member under the group's lock. HTTP handlers read under that
// lock.
type queryRunner struct {
	runnerDef

	// grp is the runner's group and mu its lock: every call into the step
	// core, and every read or write of the bookkeeping below, holds it. exec
	// is the group's step core and stage the runner's window stage in it
	// (exec.Report is the first member's report; the runner's is stage's).
	grp      *runnerGroup
	mu       *sync.Mutex
	exec     *cq.Exec
	stage    *cq.Stage
	stopOnce sync.Once

	results     []window.Result // ring of recent results
	retries     int64
	panics      int64
	health      string
	done        bool
	journalErrs int64

	// upstreamShed reports the losses of a runtime query — fan-out ring
	// laps and ingest-quota drops; nil for compiled-in queries, whose Block
	// subscriptions lose nothing.
	upstreamShed func() int64
}

const resultRing = 256

// newQueryRunner builds the runner for def, before it has a group: its
// bookkeeping, logger and engine instruments (groupRegistry.place builds its
// window stage into one).
func newQueryRunner(def runnerDef) *queryRunner {
	q := &queryRunner{runnerDef: def, health: healthFeeding}
	if q.log == nil {
		q.log = slog.Default()
	}
	if q.reg != nil {
		q.telem = cq.NewTelemetry(q.reg, q.name, q.spec)
	}
	return q
}

// finish ends the runner: its stage leaves the group (cq.Group.Leave) with
// its windows flushed — through a private copy of the handler while other
// members remain, which run on untouched — and it is marked done. The last
// member out closes the group, and finish waits for its loop to stop; then
// the runner's durability log is closed (a durable query is always alone in
// its group). It is idempotent, and never called from the loop.
func (q *queryRunner) finish() {
	q.stopOnce.Do(func() {
		g := q.grp
		g.Lock()
		last, err := g.Leave(q.stage)
		if err != nil {
			q.log.Error("journal commit on finish failed", "err", err)
		}
		q.markDone()
		g.members = slices.DeleteFunc(g.members, func(m *queryRunner) bool { return m == q })
		g.Unlock()
		if last {
			<-g.done
		}
		if q.dlog != nil {
			if err := q.dlog.Close(); err != nil {
				q.log.Error("closing durable log", "err", err)
			}
		}
	})
}

// markDone records the end of the runner's stream; the group's lock is held.
func (q *queryRunner) markDone() {
	q.done, q.health = true, healthDone
}

// absorbOne is the core's result sink: it keeps one emitted result in the
// ring. q.mu is held by whoever is stepping the core.
func (q *queryRunner) absorbOne(r window.Result) {
	q.observeWireLatency()
	q.results = append(q.results, r)
	if len(q.results) > resultRing {
		q.results = q.results[len(q.results)-resultRing:]
	}
}

// latencyP95 is the p95 of the latencies of the results in the ring — the
// last resultRing — with a flush-forced result's negative latency counted as
// 0, so it follows the query's current latency rather than its whole life;
// 0 before the first result. q.mu must be held.
func (q *queryRunner) latencyP95() float64 {
	if len(q.results) == 0 {
		return 0
	}
	var buf [resultRing]float64
	lat := buf[:0]
	for _, r := range q.results {
		lat = append(lat, float64(max(r.Latency(), 0)))
	}
	slices.Sort(lat)
	return stats.PercentileSorted(lat, 0.95)
}

// recovered is what the runner's durable recovery did (its stage's
// AggReport.Recovery, final once the runner is placed); nil for a fresh start.
func (q *queryRunner) recovered() *cq.RecoveryInfo {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stage.Report().Recovery
}

// adaptive returns the quality-driven controller behind the runner, or nil
// when the query buffers with a fixed or plain handler; q.mu must be held
// to read its state.
func (q *queryRunner) adaptive() *core.AQKSlack {
	h, _ := q.exec.Handler().(*core.AQKSlack)
	return h
}

// tuplesInLocked is the accepted-tuple count; q.mu must be held.
func (q *queryRunner) tuplesInLocked() int64 {
	return q.exec.Handler().Stats().Inserted
}

// observeWireLatency publishes one emission's client-send→emission
// latency against the last provenance-marked batch its group took
// (cq.Group.Prov); a no-op without -obs, for compiled-in queries, before the
// first marked batch and in a recovery replay, which has no provenance (and
// runs before q.grp is set). q.mu is held.
func (q *queryRunner) observeWireLatency() {
	if q.wireLat == nil || q.grp == nil {
		return
	}
	if send := q.grp.Prov().SendMS; send != 0 {
		if d := time.Now().UnixMilli() - send; d >= 0 {
			q.wireLat.Observe(float64(d))
		}
	}
}

// shedTotal returns the tuples lost to this query upstream of it (see
// upstreamShed, which only reads atomics).
func (q *queryRunner) shedTotal() int64 {
	if q.upstreamShed == nil {
		return 0
	}
	return q.upstreamShed()
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

// degrade marks a feeding runner degraded; q.mu must be held.
func (q *queryRunner) degrade() {
	if q.health == healthFeeding {
		q.health = healthDegraded
	}
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
	// Statement and Tenant identify runtime-registered queries (api.go);
	// empty for compiled-in ones.
	Statement string `json:"statement,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	// Durability (present only with -durable-dir on a non-grouped query).
	Durable     bool             `json:"durable,omitempty"`
	JournalErrs int64            `json:"journalErrors,omitempty"`
	Recovery    *cq.RecoveryInfo `json:"recovery,omitempty"`
}

func (q *queryRunner) status() status {
	q.mu.Lock()
	defer q.mu.Unlock()
	// The window counts are the operator's: restored with a durable query's
	// snapshot and advanced by its replay.
	rep := q.stage.Report()
	st := status{
		Name:        q.name,
		Theta:       q.theta,
		WindowSize:  q.spec.Size,
		WindowSlide: q.spec.Slide,
		Aggregate:   q.agg.Name,
		TuplesIn:    q.tuplesInLocked(),
		Windows:     rep.Op.Emitted + rep.Op.Refinements,
		LatencyP95:  q.latencyP95(),
		Health:      q.health,
		Shed:        q.shedTotal(),
		Retries:     q.retries,
		Panics:      q.panics,
		Done:        q.done,
		Grouped:     q.grouped,
		Durable:     q.dlog != nil,
		JournalErrs: q.journalErrs,
		Recovery:    rep.Recovery,
		Statement:   q.statement,
		Tenant:      q.tenant,
	}
	st.K = int64(q.exec.Handler().K())
	// Quality fields stay zero without an adaptive estimator to read.
	if h := q.adaptive(); h != nil {
		qs := h.Quality()
		st.RealizedErr = qs.RealizedErrEWMA
		st.RealizedErrAdj = metrics.ShedAdjustedErr(qs.RealizedErrEWMA, st.Shed, st.TuplesIn)
		st.EstErr = qs.LastEstErr
		st.Adaptations = qs.Adaptations
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

// server exposes the query table over HTTP.
type server struct {
	// mu guards queries, the one record of every query, compiled in or
	// registered at runtime (api.go). maxQueries caps the runtime queries
	// one tenant holds (-max-queries-per-tenant); 0 means unlimited.
	mu         sync.RWMutex
	queries    map[string]*tableEntry
	maxQueries int
	draining   atomic.Bool
	reg        *obs.Registry // non-nil with -obs: serves /metrics and pprof
	// api is the runtime query-management handler (api.go); nil without
	// -api.
	api http.Handler
	// history is the metric time-series store behind /api/stats and the
	// SLO burn-rate gauges; nil without -obs.
	history *obs.History
	// sloBudget is the error-budget fraction the burn-rate evaluation
	// divides by (-slo-budget flag); <= 0 disables burn-rate readouts.
	sloBudget float64
}

// tableEntry is one name in the query table. A compiled-in query's entry
// holds its runner for good. A runtime registration's holds the name and one
// of its tenant's quota slots from admission until its runner has ended; run
// is nil, and no reader sees the name, while the runner is built or ended.
type tableEntry struct {
	run     *queryRunner
	tenant  string
	runtime bool
}

func newServer() *server {
	return &server{queries: make(map[string]*tableEntry)}
}

// add records a compiled-in query.
func (s *server) add(q *queryRunner) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries[q.name] = &tableEntry{run: q}
}

// admit reserves name and a slot of tenant's quota for a runtime
// registration, in one check under the table's lock: of racing registrations
// exactly one wins a name or a tenant's last slot. It fails with 409 when the
// name is taken, by a query or a registration in flight, with 429 when the
// tenant holds maxQueries, and with 400 once the server drains.
func (s *server) admit(name, tenant string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return badRequest("server is draining")
	}
	if _, ok := s.queries[name]; ok {
		return &httpError{code: http.StatusConflict, msg: fmt.Sprintf("query %q already exists", name)}
	}
	held := 0
	for _, e := range s.queries {
		if e.runtime && e.tenant == tenant {
			held++
		}
	}
	if s.maxQueries > 0 && held >= s.maxQueries {
		return &httpError{code: http.StatusTooManyRequests, msg: fmt.Sprintf("tenant %q at query quota (%d)", tenant, s.maxQueries)}
	}
	s.queries[name] = &tableEntry{tenant: tenant, runtime: true}
	return nil
}

// place shows an admitted registration's runner to readers. It reports false,
// the name still reserved, once the server drains: drain ends the runners it
// sees, so the caller ends this one.
func (s *server) place(q *queryRunner) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.queries[q.name].run = q
	return true
}

// release frees a reserved name and its quota slot.
func (s *server) release(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.queries, name)
}

// take hides the named runtime query from readers and returns its runner, the
// name still reserved until release; nil when there is no such query.
func (s *server) take(name string) *queryRunner {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.queries[name]
	if e == nil || !e.runtime || e.run == nil {
		return nil
	}
	q := e.run
	e.run = nil
	return q
}

func (s *server) get(name string) (*queryRunner, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e := s.queries[name]; e != nil && e.run != nil {
		return e.run, true
	}
	return nil, false
}

// runners returns the visible queries sorted by name, or only the runtime
// ones.
func (s *server) runners(runtimeOnly bool) []*queryRunner {
	s.mu.RLock()
	out := make([]*queryRunner, 0, len(s.queries))
	for _, e := range s.queries {
		if e.run != nil && (e.runtime || !runtimeOnly) {
			out = append(out, e.run)
		}
	}
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b *queryRunner) int { return strings.Compare(a.name, b.name) })
	return out
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
	Recovered map[string]*cq.RecoveryInfo `json:"recovered,omitempty"`
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
	for _, q := range s.runners(false) {
		n := q.name
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
		if rec := q.recovered(); rec != nil {
			if r.Recovered == nil {
				r.Recovered = make(map[string]*cq.RecoveryInfo)
			}
			r.Recovered[n] = rec
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
		qs := s.runners(false)
		out := make([]status, 0, len(qs))
		for _, q := range qs {
			out = append(out, q.status())
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

// resultJSON is the wire form of a window result. Value is null where the
// result is NaN or ±Inf, which JSON cannot carry: an empty window's max, min,
// avg, stddev or quantile, or a window given up after its emission kept
// panicking.
type resultJSON struct {
	Window  int64    `json:"window"`
	Start   int64    `json:"start"`
	End     int64    `json:"end"`
	Value   *float64 `json:"value"`
	Count   int64    `json:"count"`
	Latency int64    `json:"latency"`
}

func resultsJSON(rs []window.Result) []resultJSON {
	out := make([]resultJSON, len(rs))
	for i, r := range rs {
		out[i] = resultJSON{
			Window: r.Idx, Start: r.Start, End: r.End,
			Count: r.Count, Latency: r.Latency(),
		}
		if !math.IsNaN(r.Value) && !math.IsInf(r.Value, 0) {
			out[i].Value = &rs[i].Value
		}
	}
	return out
}

// writeJSON answers with v as compact JSON, marshaled whole before anything
// is written, so a value that cannot be encoded is a 500, not a torn 200.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, body)
}

// writeBody answers with body, a whole JSON value, and a newline.
func writeBody(w http.ResponseWriter, body []byte) {
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body) // fails only when the client has gone: no one to tell
}
