package main

// Runtime query management (-api): a CQL-over-HTTP control plane that
// registers, inspects and removes continuous queries while the server
// runs, bound to named network sources fed over the TCP line protocol
// (-listen, internal/netstream → internal/fleet). Runtime queries get
// the full compiled-in wiring — flight recorder, SLO watchdog,
// structured logs, -obs instruments, optional durability — and attach
// to their source's broadcast ring at the frontier under ShedOldest:
// a slow runtime query sheds (charged to its own accounting) instead
// of backpressuring the tenants it shares the source with.
//
//	POST   /api/queries   {"name","tenant","cql"}  register (201)
//	GET    /api/queries                            list runtime queries
//	GET    /api/queries/{name}                     one query's status
//	DELETE /api/queries/{name}                     stop + deregister (204)
//	GET    /api/sources                            list known sources
//	POST   /api/sources   {"name"}                 pre-register a source
//
// docs/API.md is the full walkthrough (line-protocol grammar, quota
// semantics, curl transcript).

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/cql"
	"repro/internal/netstream"
	"repro/internal/obs"
)

// maxAPIBody bounds request bodies; a CQL statement fits in far less.
const maxAPIBody = 64 << 10

// registerRequest is the POST /api/queries body.
type registerRequest struct {
	Name   string `json:"name"`
	Tenant string `json:"tenant,omitempty"`
	CQL    string `json:"cql"`
}

// apiError is every non-2xx response body.
type apiError struct {
	Error string `json:"error"`
}

// httpError pairs a client-visible message with its status code so the
// registration pipeline can fail at any stage with the right 4xx.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// apiHandler builds the /api/ routing table over the app's query table and
// fleet sources.
func (a *app) apiHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/queries", a.handleAPIQueries)
	mux.HandleFunc("/api/queries/", a.handleAPIQuery)
	mux.HandleFunc("/api/sources", a.handleAPISources)
	return mux
}

func writeAPIError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiError{Error: msg})
}

// readJSONBody decodes a bounded JSON body; any malformed input is the
// client's fault (400), never ours (the FuzzQueryAPI contract: no body
// produces a 5xx or a panic).
func readJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAPIBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid JSON body: %v", err)
	}
	return nil
}

func (a *app) handleAPIQueries(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		qs := a.srv.runners(true)
		out := make([]status, 0, len(qs))
		for _, q := range qs {
			out = append(out, q.status())
		}
		writeJSON(w, out)
	case http.MethodPost:
		var req registerRequest
		if err := readJSONBody(w, r, &req); err != nil {
			var he *httpError
			errors.As(err, &he)
			writeAPIError(w, he.code, he.msg)
			return
		}
		q, err := a.registerQuery(req)
		if err != nil {
			var he *httpError
			if errors.As(err, &he) {
				writeAPIError(w, he.code, he.msg)
			} else {
				writeAPIError(w, http.StatusBadRequest, err.Error())
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(q.status())
	default:
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

func (a *app) handleAPIQuery(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/api/queries/")
	if name == "" || strings.Contains(name, "/") {
		writeAPIError(w, http.StatusNotFound, "unknown endpoint")
		return
	}
	switch r.Method {
	case http.MethodGet:
		if q, ok := a.srv.get(name); ok && q.statement != "" {
			writeJSON(w, q.status())
			return
		}
		writeAPIError(w, http.StatusNotFound, fmt.Sprintf("no runtime query %q", name))
	case http.MethodDelete:
		if !a.dropQuery(name) {
			writeAPIError(w, http.StatusNotFound, fmt.Sprintf("no runtime query %q", name))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}

func (a *app) handleAPISources(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		type sourceInfo struct {
			Name     string `json:"name"`
			Tuples   int64  `json:"tuplesIn"`
			RateShed int64  `json:"rateShedTuples"`
		}
		out := make([]sourceInfo, 0)
		for _, n := range a.fleet.SourceNames() {
			s := a.fleet.Source(n)
			out = append(out, sourceInfo{Name: n, Tuples: s.Tuples(), RateShed: s.RateShed()})
		}
		writeJSON(w, out)
	case http.MethodPost:
		var req struct {
			Name string `json:"name"`
		}
		if err := readJSONBody(w, r, &req); err != nil {
			var he *httpError
			errors.As(err, &he)
			writeAPIError(w, he.code, he.msg)
			return
		}
		if !netstream.ValidName(req.Name) {
			writeAPIError(w, http.StatusBadRequest,
				fmt.Sprintf("invalid source name %q (want [A-Za-z0-9_.-]{1,%d})", req.Name, netstream.MaxNameLen))
			return
		}
		a.fleet.Source(req.Name)
		w.WriteHeader(http.StatusCreated)
		writeJSON(w, map[string]string{"name": req.Name})
	default:
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// registerQuery is the full runtime admission pipeline: validate, parse,
// bind, admit — reserve the name and a quota slot in the query table — then
// wire a runner exactly like a compiled-in query and place it in its group on
// the source ring — a fresh group of the same handler, or a new one attached
// at the frontier, whose loop starts (groupRegistry.place) — and in the
// table. A registration that fails after its admission ends whatever it
// built and frees its name.
func (a *app) registerQuery(req registerRequest) (*queryRunner, error) {
	if !netstream.ValidName(req.Name) {
		return nil, badRequest("invalid query name %q (want [A-Za-z0-9_.-]{1,%d})", req.Name, netstream.MaxNameLen)
	}
	if req.Tenant != "" && !netstream.ValidName(req.Tenant) {
		return nil, badRequest("invalid tenant %q", req.Tenant)
	}
	stmt, err := cql.Parse(req.CQL)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if err := stmt.BindSource(a.fleet); err != nil {
		code := http.StatusNotFound // unknown source
		if stmt.TraceFile != "" {
			code = http.StatusBadRequest
		}
		return nil, &httpError{code: code, msg: err.Error()}
	}
	if stmt.GroupBy && stmt.Quality > 0 {
		return nil, badRequest("QUALITY is not supported for GROUP BY queries registered at runtime; use a fixed HANDLER")
	}
	def := runnerDef{
		name: req.Name, theta: stmt.Quality, spec: stmt.Spec, agg: stmt.Agg,
		grouped: stmt.GroupBy, statement: req.CQL, tenant: req.Tenant,
	}
	if stmt.Quality == 0 { // otherwise: the adaptive controller at QUALITY
		if def.handler, err = stmt.BuildHandler(); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	// The name and the slot are held from here on, so nothing below — the
	// durable log, the ring attachment, the series — is built twice.
	if err := a.srv.admit(req.Name, req.Tenant); err != nil {
		return nil, err
	}
	if a.srv.reg != nil {
		// True client-send→emission latency, keyed by source: queries on
		// the same source share the histogram, so it reads as the wire's
		// property, not any one query's.
		def.wireLat = a.srv.reg.Histogram("aq_wire_latency_ms",
			"Client-send to window-emission latency in milliseconds per network source (wire provenance marks).",
			obs.LatencyBuckets(), obs.L("source", stmt.Source))
	}
	src := a.fleet.Source(stmt.Source)
	q, err := a.buildRunner(def, src, nil)
	if err != nil {
		a.endQuery(req.Name, nil)
		return nil, err
	}
	// Charge upstream losses to this query from its own baseline: ring laps
	// are its group's subscription's, which attached no earlier than the
	// query (a query joins a group only while nothing has been published
	// since it attached); the source-level rate-quota shed counter is
	// rebased to attach time.
	sub, rateBase := q.grp.Sub(), src.RateShed()
	q.mu.Lock()
	q.upstreamShed = func() int64 { return sub.Shed() + src.RateShed() - rateBase }
	q.mu.Unlock()

	if !a.srv.place(q) {
		a.endQuery(req.Name, q)
		return nil, badRequest("server is draining")
	}
	q.log.Info("runtime query registered", "tenant", req.Tenant, "source", stmt.Source, "cql", req.CQL)
	return q, nil
}

// dropQuery ends the named runtime query (DELETE /api/queries/{name});
// false when there is none.
func (a *app) dropQuery(name string) bool {
	q := a.srv.take(name)
	if q == nil {
		return false
	}
	a.endQuery(name, q)
	return true
}

// endQuery ends a runtime query the table holds the name of: its runner, if
// it has one, leaves its group with its windows flushed (the last member out
// stops the group's loop) and closes its durable log; its series go, since
// their callbacks hold the runner and the metric history would keep every
// one of them for good; then the name and its quota slot are freed.
func (a *app) endQuery(name string, q *queryRunner) {
	if q != nil {
		q.finish()
	}
	if a.srv.reg != nil {
		a.srv.reg.Forget(obs.L("query", name))
	}
	a.srv.release(name)
}
