package main

// The fleet observability plane: windowed metric history over
// obs.History (/api/stats), SLO burn-rate gauges, and the HTTP
// control-plane instruments. Everything here is read-side — it never
// touches operator state, only runner statuses and the query table.

import (
	"errors"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Burn-rate windows follow the SRE multi-window pattern: the fast
// window catches a sudden budget fire quickly, the slow window keeps a
// brief spike from paging. A query is only called degraded on burn when
// BOTH run at >= 1x.
const (
	burnFastWindow = time.Minute
	burnSlowWindow = 5 * time.Minute
)

// registerBurnRate publishes aq_slo_burn_rate{query,window} gauges
// evaluating the watchdog's cumulative aq_time_in_violation_ms series
// against the error budget: (Δviolation_ms / Δelapsed_ms) / budget over
// the trailing window. 1.0 means the budget burns exactly as fast as it
// accrues; the gauges read 0 until the history holds two in-window
// samples.
func registerBurnRate(reg *obs.Registry, h *obs.History, budget float64, query string) {
	if reg == nil || h == nil || budget <= 0 {
		return
	}
	lbl := obs.L("query", query)
	for _, w := range []struct {
		name string
		d    time.Duration
	}{{"fast", burnFastWindow}, {"slow", burnSlowWindow}} {
		w := w
		reg.GaugeFunc("aq_slo_burn_rate",
			"Quality-SLO error-budget burn rate over the trailing window (1.0 = consuming exactly the budget).",
			func() float64 {
				rate, ok := h.BurnRate("aq_time_in_violation_ms", []obs.Label{lbl}, w.d, budget)
				if !ok {
					return 0
				}
				return rate
			}, lbl, obs.L("window", w.name))
	}
}

// burnRates reads one query's current fast/slow burn rates; ok is false
// without -obs, without a budget, or before either window holds two
// samples.
func (s *server) burnRates(query string) (fast, slow float64, ok bool) {
	if s.history == nil || s.sloBudget <= 0 {
		return 0, 0, false
	}
	lbl := []obs.Label{obs.L("query", query)}
	fast, okF := s.history.BurnRate("aq_time_in_violation_ms", lbl, burnFastWindow, s.sloBudget)
	slow, okS := s.history.BurnRate("aq_time_in_violation_ms", lbl, burnSlowWindow, s.sloBudget)
	if !okF || !okS {
		return 0, 0, false
	}
	return fast, slow, true
}

// queryRollup is the live per-query summary the console renders next to
// the series sparklines.
type queryRollup struct {
	Tenant      string  `json:"tenant"`
	Health      string  `json:"health"`
	Theta       float64 `json:"theta"`
	K           int64   `json:"currentK"`
	RealizedErr float64 `json:"realizedErrAdjusted"`
	TuplesIn    int64   `json:"tuplesIn"`
	Windows     int64   `json:"windowsEmitted"`
	Shed        int64   `json:"shedTuples"`
	BurnFast    float64 `json:"burnRateFast,omitempty"`
	BurnSlow    float64 `json:"burnRateSlow,omitempty"`
}

// tenantRollup aggregates the rollup across one tenant's queries
// (compiled-in queries roll up under "default").
type tenantRollup struct {
	Queries  int   `json:"queries"`
	TuplesIn int64 `json:"tuplesIn"`
	Windows  int64 `json:"windowsEmitted"`
	Shed     int64 `json:"shedTuples"`
	// FleetQueries counts the tenant's runtime queries among Queries: those
	// holding a -max-queries-per-tenant slot. A tenantless runtime query's
	// slot counts under "default", beside the compiled-in queries, which
	// hold none.
	FleetQueries int `json:"fleetQueries,omitempty"`
}

// handleStats serves GET /api/stats: windowed history for every
// catalogued series the registry holds, downsampled on request.
// Parameters: series (comma-separated names; histogram base names match
// their _count/_sum readings), window and step (Go durations), query
// and tenant (restrict the series label match and the rollups).
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	req, err := s.parseStats(r.URL.Query(), time.Now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bp := statsBufs.Get().(*[]byte)
	defer statsBufs.Put(bp)
	*bp, err = s.appendStats((*bp)[:0], req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, *bp)
}

// statsBufs holds the buffers /api/stats responses are appended into.
var statsBufs = sync.Pool{New: func() any { return new([]byte) }}

// statsRequest is a parsed /api/stats request.
type statsRequest struct {
	now           time.Time
	hq            obs.HistoryQuery
	query, tenant string // the query and tenant filters; empty = all
}

// parseStats reads the request parameters, taking the window back from now.
func (s *server) parseStats(params url.Values, now time.Time) (statsRequest, error) {
	req := statsRequest{now: now, query: params.Get("query"), tenant: params.Get("tenant")}
	if names := params.Get("series"); names != "" {
		for _, n := range strings.Split(names, ",") {
			if n = strings.TrimSpace(n); n != "" {
				req.hq.Names = append(req.hq.Names, n)
			}
		}
	}
	window := s.history.Retention()
	if ws := params.Get("window"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d <= 0 {
			return req, errors.New("bad window: want a positive Go duration like 5m")
		}
		window = d
	}
	req.hq.SinceMS = now.Add(-window).UnixMilli()
	if ss := params.Get("step"); ss != "" {
		d, err := time.ParseDuration(ss)
		if err != nil || d <= 0 {
			return req, errors.New("bad step: want a positive Go duration like 10s")
		}
		req.hq.StepMS = d.Milliseconds()
	}
	if req.query != "" {
		req.hq.Labels = append(req.hq.Labels, obs.L("query", req.query))
	}
	return req, nil
}

// rollups summarizes the live runners the request's filters select, per
// query and per tenant (a compiled-in query's tenant is "default").
func (s *server) rollups(req statsRequest) (map[string]queryRollup, map[string]tenantRollup) {
	queries := make(map[string]queryRollup)
	tenants := make(map[string]tenantRollup)
	for _, qr := range s.runners(false) {
		n, st := qr.name, qr.status()
		tenant := st.Tenant
		if tenant == "" {
			tenant = "default"
		}
		if req.query != "" && n != req.query {
			continue
		}
		if req.tenant != "" && tenant != req.tenant {
			continue
		}
		roll := queryRollup{
			Tenant:      tenant,
			Health:      st.Health,
			Theta:       st.Theta,
			K:           st.K,
			RealizedErr: st.RealizedErrAdj,
			TuplesIn:    st.TuplesIn,
			Windows:     st.Windows,
			Shed:        st.Shed,
		}
		if fast, slow, ok := s.burnRates(n); ok {
			roll.BurnFast, roll.BurnSlow = fast, slow
		}
		queries[n] = roll
		t := tenants[tenant]
		t.Queries++
		t.TuplesIn += st.TuplesIn
		t.Windows += st.Windows
		t.Shed += st.Shed
		if st.Statement != "" {
			t.FleetQueries++
		}
		tenants[tenant] = t
	}
	return queries, tenants
}

// appendStats appends the /api/stats body for req: the series straight from
// the history's tracks, then the rollups in key order, byte for byte what
// json.Marshal writes for the same response as a struct
// (TestStatsJSONMatchesEncodingJSON). Like json.Marshal, it fails on a NaN
// or ±Inf value.
func (s *server) appendStats(b []byte, req statsRequest) ([]byte, error) {
	step := s.history.Step().Milliseconds()
	if req.hq.StepMS > 0 {
		step = req.hq.StepMS
	}
	b = append(b, `{"nowMs":`...)
	b = strconv.AppendInt(b, req.now.UnixMilli(), 10)
	b = append(b, `,"stepMs":`...)
	b = strconv.AppendInt(b, step, 10)
	b = append(b, `,"retentionMs":`...)
	b = strconv.AppendInt(b, s.history.Retention().Milliseconds(), 10)
	b = append(b, `,"series":`...)
	b, err := s.history.AppendJSON(b, req.hq)
	if err != nil {
		return b, err
	}
	queries, tenants := s.rollups(req)
	b = append(b, `,"queries":{`...)
	for i, n := range sortedKeys(queries) {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = queries[n].appendJSON(obs.AppendJSONString(b, n)); err != nil {
			return b, err
		}
	}
	b = append(b, `},"tenants":{`...)
	for i, n := range sortedKeys(tenants) {
		if i > 0 {
			b = append(b, ',')
		}
		b = tenants[n].appendJSON(obs.AppendJSONString(b, n))
	}
	return append(b, "}}"...), nil
}

// sortedKeys returns m's keys in the order json.Marshal writes them.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendJSON appends :{…}, the rollup as json.Marshal writes it after its
// key.
func (r queryRollup) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `:{"tenant":`...)
	b = obs.AppendJSONString(b, r.Tenant)
	b = append(b, `,"health":`...)
	b = obs.AppendJSONString(b, r.Health)
	b = append(b, `,"theta":`...)
	b, err := obs.AppendJSONFloat(b, r.Theta)
	if err != nil {
		return b, err
	}
	b = append(b, `,"currentK":`...)
	b = strconv.AppendInt(b, r.K, 10)
	b = append(b, `,"realizedErrAdjusted":`...)
	if b, err = obs.AppendJSONFloat(b, r.RealizedErr); err != nil {
		return b, err
	}
	b = append(b, `,"tuplesIn":`...)
	b = strconv.AppendInt(b, r.TuplesIn, 10)
	b = append(b, `,"windowsEmitted":`...)
	b = strconv.AppendInt(b, r.Windows, 10)
	b = append(b, `,"shedTuples":`...)
	b = strconv.AppendInt(b, r.Shed, 10)
	if r.BurnFast != 0 {
		b = append(b, `,"burnRateFast":`...)
		if b, err = obs.AppendJSONFloat(b, r.BurnFast); err != nil {
			return b, err
		}
	}
	if r.BurnSlow != 0 {
		b = append(b, `,"burnRateSlow":`...)
		if b, err = obs.AppendJSONFloat(b, r.BurnSlow); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendJSON appends :{…}, the rollup as json.Marshal writes it after its
// key.
func (t tenantRollup) appendJSON(b []byte) []byte {
	b = append(b, `:{"queries":`...)
	b = strconv.AppendInt(b, int64(t.Queries), 10)
	b = append(b, `,"tuplesIn":`...)
	b = strconv.AppendInt(b, t.TuplesIn, 10)
	b = append(b, `,"windowsEmitted":`...)
	b = strconv.AppendInt(b, t.Windows, 10)
	b = append(b, `,"shedTuples":`...)
	b = strconv.AppendInt(b, t.Shed, 10)
	if t.FleetQueries != 0 {
		b = append(b, `,"fleetQueries":`...)
		b = strconv.AppendInt(b, int64(t.FleetQueries), 10)
	}
	return append(b, '}')
}

// statusRecorder captures the response code for the control-plane
// request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrumentRoute wraps one control-plane handler with request counting
// (aq_api_requests_total{route,code}) and latency measurement
// (aq_api_latency_ms{route}); a pass-through without -obs. The route
// label is the pattern, never the raw path, so cardinality stays
// bounded. Each instrument is looked up in the registry once: the
// histogram on the route's first request, a counter on its code's first
// appearance.
func (s *server) instrumentRoute(route string, h http.HandlerFunc) http.HandlerFunc {
	if s.reg == nil {
		return h
	}
	latency := sync.OnceValue(func() *obs.Histogram {
		return s.reg.Histogram("aq_api_latency_ms",
			"HTTP control-plane request latency in milliseconds by route pattern.",
			obs.LatencyBuckets(), obs.L("route", route))
	})
	requests := &requestCounters{reg: s.reg, route: route}
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(rec, r)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		requests.counter(rec.code).Inc()
		latency().Observe(ms)
	}
}

// requestCounters are one route's aq_api_requests_total counters by status
// code, read without a lock: the map is replaced, never changed, when a
// code first appears.
type requestCounters struct {
	reg   *obs.Registry
	route string
	mu    sync.Mutex // held to add a code
	codes atomic.Pointer[map[int]*obs.Counter]
}

func (rc *requestCounters) counter(code int) *obs.Counter {
	if m := rc.codes.Load(); m != nil {
		if c := (*m)[code]; c != nil {
			return c
		}
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	m := make(map[int]*obs.Counter)
	if old := rc.codes.Load(); old != nil {
		maps.Copy(m, *old)
	}
	if m[code] == nil {
		m[code] = rc.reg.Counter("aq_api_requests_total",
			"HTTP control-plane requests by route pattern and status code.",
			obs.L("route", rc.route), obs.L("code", strconv.Itoa(code)))
		rc.codes.Store(&m)
	}
	return m[code]
}

// apiRoutes are the route labels apiRoute returns, each instrumented once.
var apiRoutes = []string{"/api/queries", "/api/sources", "/api/stats", "/api/queries/{name}", "/api/other"}

// apiRoute normalizes a request path to its bounded route label.
func apiRoute(path string) string {
	switch {
	case path == "/api/queries", path == "/api/sources", path == "/api/stats":
		return path
	case strings.HasPrefix(path, "/api/queries/"):
		return "/api/queries/{name}"
	default:
		return "/api/other"
	}
}

// instrumentAPI wraps the runtime query-management mux (api.go) with
// the same instruments, deriving the route label from the path shape.
func (s *server) instrumentAPI(h http.Handler) http.Handler {
	routes := make(map[string]http.HandlerFunc, len(apiRoutes))
	for _, route := range apiRoutes {
		routes[route] = s.instrumentRoute(route, h.ServeHTTP)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		routes[apiRoute(r.URL.Path)](w, r)
	})
}
