package main

// The fleet observability plane: windowed metric history over
// obs.History (/api/stats), SLO burn-rate gauges, and the HTTP
// control-plane instruments. Everything here is read-side — it never
// touches operator state, only runner statuses and the query table.

import (
	"net/http"
	"strconv"
	"strings"
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

// statsResponse is the JSON shape of /api/stats: the selected series
// histories plus per-query and per-tenant rollups of the live runners.
type statsResponse struct {
	NowMS       int64                   `json:"nowMs"`
	StepMS      int64                   `json:"stepMs"`
	RetentionMS int64                   `json:"retentionMs"`
	Series      []obs.SeriesHistory     `json:"series"`
	Queries     map[string]queryRollup  `json:"queries"`
	Tenants     map[string]tenantRollup `json:"tenants"`
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
	params := r.URL.Query()
	var hq obs.HistoryQuery
	if names := params.Get("series"); names != "" {
		for _, n := range strings.Split(names, ",") {
			if n = strings.TrimSpace(n); n != "" {
				hq.Names = append(hq.Names, n)
			}
		}
	}
	now := time.Now()
	window := s.history.Retention()
	if ws := params.Get("window"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d <= 0 {
			http.Error(w, "bad window: want a positive Go duration like 5m", http.StatusBadRequest)
			return
		}
		window = d
	}
	hq.SinceMS = now.Add(-window).UnixMilli()
	if ss := params.Get("step"); ss != "" {
		d, err := time.ParseDuration(ss)
		if err != nil || d <= 0 {
			http.Error(w, "bad step: want a positive Go duration like 10s", http.StatusBadRequest)
			return
		}
		hq.StepMS = d.Milliseconds()
	}
	queryFilter := params.Get("query")
	tenantFilter := params.Get("tenant")
	if queryFilter != "" {
		hq.Labels = append(hq.Labels, obs.L("query", queryFilter))
	}

	resp := statsResponse{
		NowMS:       now.UnixMilli(),
		StepMS:      s.history.Step().Milliseconds(),
		RetentionMS: s.history.Retention().Milliseconds(),
		Series:      s.history.Query(hq),
		Queries:     make(map[string]queryRollup),
		Tenants:     make(map[string]tenantRollup),
	}
	if hq.StepMS > 0 {
		resp.StepMS = hq.StepMS
	}
	if resp.Series == nil {
		resp.Series = []obs.SeriesHistory{}
	}
	for _, qr := range s.runners(false) {
		n, st := qr.name, qr.status()
		tenant := st.Tenant
		if tenant == "" {
			tenant = "default"
		}
		if queryFilter != "" && n != queryFilter {
			continue
		}
		if tenantFilter != "" && tenant != tenantFilter {
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
		resp.Queries[n] = roll
		t := resp.Tenants[tenant]
		t.Queries++
		t.TuplesIn += st.TuplesIn
		t.Windows += st.Windows
		t.Shed += st.Shed
		if st.Statement != "" {
			t.FleetQueries++
		}
		resp.Tenants[tenant] = t
	}
	writeJSON(w, resp)
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
// bounded.
func (s *server) instrumentRoute(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.reg == nil {
			h(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(rec, r)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		s.reg.Counter("aq_api_requests_total",
			"HTTP control-plane requests by route pattern and status code.",
			obs.L("route", route), obs.L("code", strconv.Itoa(rec.code))).Inc()
		s.reg.Histogram("aq_api_latency_ms",
			"HTTP control-plane request latency in milliseconds by route pattern.",
			obs.LatencyBuckets(), obs.L("route", route)).Observe(ms)
	}
}

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
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.instrumentRoute(apiRoute(r.URL.Path), h.ServeHTTP)(w, r)
	})
}
