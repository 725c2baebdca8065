package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4). Families are ordered by name and
// series by label set, so the output is deterministic for a given set of
// metric values — tests golden-match it and operators can diff scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	key := labelKey(s.labels)
	switch {
	case s.hist != nil:
		return writeHistogram(w, f.name, s)
	case s.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatValue(s.counter.Value()))
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatValue(s.gauge.Value()))
		return err
	}
	if fn := s.fn.Load(); fn != nil {
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatValue((*fn)()))
		return err
	}
	return nil
}

// writeHistogram renders the _bucket/_sum/_count triple, splicing the
// `le` label after the series' own labels per the exposition format.
func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.hist
	cum := h.snapshot()
	for i, c := range cum {
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		if err := writeLine(w, name+"_bucket", append(append([]Label(nil), s.labels...), L("le", le)), float64(c)); err != nil {
			return err
		}
	}
	key := labelKey(s.labels)
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, key, formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, key, h.count.Load())
	return err
}

func writeLine(w io.Writer, name string, labels []Label, v float64) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labelKey(labels), formatValue(v))
	return err
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip representation, with the special values spelled
// NaN / +Inf / -Inf.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp applies the help-text escapes (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler serves the registry in Prometheus text format. Mount it at
// /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// RegisterRuntimeMetrics publishes Go process gauges (goroutines, heap,
// GC cycles, uptime) under the aq_go_/aq_process_ prefixes. Scrape-time
// cost is one runtime.ReadMemStats per callback, which is fine at human
// scrape intervals.
func RegisterRuntimeMetrics(r *Registry) {
	start := time.Now()
	r.GaugeFunc("aq_go_goroutines", "Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("aq_go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.HeapAlloc)
		})
	r.CounterFunc("aq_go_gc_cycles_total", "Completed GC cycles.",
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.NumGC)
		})
	r.GaugeFunc("aq_process_uptime_seconds", "Seconds since the registry's runtime metrics were registered.",
		func() float64 { return time.Since(start).Seconds() })
}
