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
	"repro/internal/fleet"
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

// apiHandler builds the /api/ routing table over the app's fleet
// registry.
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
		out := make([]status, 0)
		for _, name := range a.fleet.QueryNames() {
			if q, ok := a.srv.get(name); ok {
				out = append(out, q.status())
			}
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
		if a.fleet.Query(name) == nil {
			writeAPIError(w, http.StatusNotFound, fmt.Sprintf("no runtime query %q", name))
			return
		}
		if q, ok := a.srv.get(name); ok {
			writeJSON(w, q.status())
			return
		}
		writeAPIError(w, http.StatusNotFound, fmt.Sprintf("no runtime query %q", name))
	case http.MethodDelete:
		// RemoveQuery invokes the stop hook: cancel the pump, flush open
		// windows, detach from the ring, drop the routing entry.
		if !a.fleet.RemoveQuery(name) {
			writeAPIError(w, http.StatusNotFound, fmt.Sprintf("no runtime query %q", name))
			return
		}
		// Its series go too: their callbacks hold the runner, and the
		// metric history would keep every one of them for good.
		if a.srv.reg != nil {
			a.srv.reg.Forget(obs.L("query", name))
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

// admissionError maps fleet admission failures onto HTTP status codes:
// tenant over quota → 429, name taken → 409, anything else → 400.
func admissionError(err error) error {
	var qe *fleet.QuotaError
	if errors.As(err, &qe) {
		return &httpError{code: http.StatusTooManyRequests, msg: err.Error()}
	}
	var de *fleet.DuplicateError
	if errors.As(err, &de) {
		return &httpError{code: http.StatusConflict, msg: err.Error()}
	}
	return badRequest("%v", err)
}

// registerQuery is the full runtime admission pipeline: validate,
// parse, bind, quota-check, wire a runner exactly like a compiled-in
// query and place it in its group on the source ring — a fresh group of the
// same handler, or a new one attached at the frontier, whose loop starts
// (groupRegistry.place). A failure after placement ends the query again.
func (a *app) registerQuery(req registerRequest) (*queryRunner, error) {
	if !netstream.ValidName(req.Name) {
		return nil, badRequest("invalid query name %q (want [A-Za-z0-9_.-]{1,%d})", req.Name, netstream.MaxNameLen)
	}
	if req.Tenant != "" && !netstream.ValidName(req.Tenant) {
		return nil, badRequest("invalid tenant %q", req.Tenant)
	}
	if _, exists := a.srv.get(req.Name); exists {
		return nil, &httpError{code: http.StatusConflict, msg: fmt.Sprintf("query %q already exists", req.Name)}
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

	// Admission precheck before any heavy state exists: building the
	// runner may open (and recover) a durable log, and a rejected
	// registration must leave nothing on disk. AddQuery below remains
	// the authoritative check under concurrent registrations.
	if err := a.fleet.Admissible(req.Name, req.Tenant); err != nil {
		return nil, admissionError(err)
	}

	src := a.fleet.Source(stmt.Source)
	q, err := a.buildRuntimeRunner(req, stmt, src)
	if err != nil {
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

	stop := q.finish // leaves the group (the last member out stops its loop) and closes the log
	entry := &fleet.Query{
		Name:      req.Name,
		Tenant:    req.Tenant,
		Statement: req.CQL,
		Stop: func() {
			stop()
			a.srv.remove(req.Name)
		},
	}
	if err := a.fleet.AddQuery(entry); err != nil {
		stop() // Stop never runs
		return nil, admissionError(err)
	}

	a.srv.add(q)
	q.log.Info("runtime query registered", "tenant", req.Tenant, "source", stmt.Source, "cql", req.CQL)
	return q, nil
}

// buildRuntimeRunner maps a parsed statement onto buildRunner: the same
// runner object and wiring as a compiled-in query, over the network source
// src.
func (a *app) buildRuntimeRunner(req registerRequest, stmt cql.Query, src *fleet.Source) (*queryRunner, error) {
	def := runnerDef{
		name: req.Name, theta: stmt.Quality, spec: stmt.Spec, agg: stmt.Agg,
		grouped: stmt.GroupBy, statement: req.CQL, tenant: req.Tenant,
	}
	if a.srv.reg != nil {
		// True client-send→emission latency, keyed by source: queries on
		// the same source share the histogram, so it reads as the wire's
		// property, not any one query's.
		def.wireLat = a.srv.reg.Histogram("aq_wire_latency_ms",
			"Client-send to window-emission latency in milliseconds per network source (wire provenance marks).",
			obs.LatencyBuckets(), obs.L("source", stmt.Source))
	}
	if stmt.GroupBy && stmt.Quality > 0 {
		return nil, badRequest("QUALITY is not supported for GROUP BY queries registered at runtime; use a fixed HANDLER")
	}
	if stmt.Quality == 0 { // otherwise: the adaptive controller at QUALITY
		var err error
		if def.handler, err = stmt.BuildHandler(); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	return a.buildRunner(def, src, nil)
}
