package main

// Event tracing and flight-recorder wiring: every query runner owns a
// tracez.Tracer over a fixed ring of recent pipeline events (always on —
// the recorder is lock-minimal and sized by -trace-buf). buildRunner hands
// the tracer to the engine (AggQuery.Trace), which traces buffer activity,
// controller decisions, emits and snapshots for every kind of runner. The recorder is
// served as Chrome trace-event JSON at /debug/aq/trace, dumped to
// -trace-dump files when a panic is isolated, a breaker trips or the
// quality-SLO watchdog fires, and mirrored with the per-query structured
// logs so a dump interleaves pipeline events with what the server said.

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"log/slog"

	"repro/internal/obs/tracez"
)

// installDumpSink makes every flight-recorder dump (panic, breaker trip,
// quality violation, on demand) land in dir as a self-contained Chrome
// trace file named <query>-<reason>-<n>.json; the dump's provenance
// records ride along in the trace's otherData.
func installDumpSink(tr *tracez.Tracer, dir string, logger *slog.Logger) {
	var n atomic.Int64
	tr.OnDump(func(d tracez.Dump) {
		path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.json", d.Query, d.Reason, n.Add(1)))
		f, err := os.Create(path)
		if err != nil {
			logger.Error("trace dump failed", "reason", d.Reason, "err", err)
			return
		}
		defer f.Close()
		extra := map[string]any{
			"reason": d.Reason, "at": d.At, "window": d.Win,
			"provenance": d.Provenance,
		}
		if err := tracez.WriteChromeTrace(f, d.Query, d.Events, extra); err != nil {
			logger.Error("trace dump failed", "reason", d.Reason, "err", err)
			return
		}
		logger.Info("flight recorder dumped", "reason", d.Reason, "window", d.Win, "path", path)
	})
}

// handleTrace serves GET /debug/aq/trace?query=NAME&last=N: the named
// query's recent events as Chrome trace-event JSON, loadable in
// Perfetto/chrome://tracing. Per-window provenance records are attached
// in otherData.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("query")
	if name == "" {
		var names []string
		for _, q := range s.runners(false) {
			names = append(names, q.name)
		}
		http.Error(w, fmt.Sprintf("missing ?query=; available: %s",
			strings.Join(names, ", ")), http.StatusBadRequest)
		return
	}
	q, ok := s.get(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown query %q", name), http.StatusNotFound)
		return
	}
	if q.tracer == nil {
		http.Error(w, "tracing not enabled for this query", http.StatusNotFound)
		return
	}
	n, _ := strconv.Atoi(r.URL.Query().Get("last"))
	events := q.tracer.Recorder().Last(n)
	extra := map[string]any{
		"query":      name,
		"events":     len(events),
		"provenance": q.tracer.Provenances(),
	}
	w.Header().Set("Content-Type", "application/json")
	if err := tracez.WriteChromeTrace(w, name, events, extra); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
