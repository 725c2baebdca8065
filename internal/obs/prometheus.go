package obs

import (
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4). Families are ordered by name and
// series by label set, so the output is deterministic for a given set of
// metric values — tests golden-match it and operators can diff scrapes.
//
// The text is appended into a pooled buffer and written in one call. The
// orderings are kept between scrapes and redone only after a registration
// or a Forget changed them; a family's HELP and TYPE lines and a
// histogram's le values are rendered once. Callbacks run with no registry
// lock held.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bp := scrapeBufs.Get().(*[]byte)
	defer scrapeBufs.Put(bp)
	*bp = r.appendPrometheus((*bp)[:0])
	_, err := w.Write(*bp)
	return err
}

// scrapeBufs holds the buffers expositions are appended into.
var scrapeBufs = sync.Pool{New: func() any { return new([]byte) }}

func (r *Registry) appendPrometheus(b []byte) []byte {
	for _, f := range r.sortedFamilies() {
		head, sorted := f.exposition()
		b = append(b, head...)
		for _, s := range sorted {
			switch {
			case s.hist != nil:
				b = appendHistogram(b, f.name, s)
			case s.counter != nil:
				b = appendSample(b, f.name, "", s.key, s.counter.Value())
			case s.gauge != nil:
				b = appendSample(b, f.name, "", s.key, s.gauge.Value())
			default:
				if fn := s.fn.Load(); fn != nil {
					b = appendSample(b, f.name, "", s.key, (*fn)())
				} // else the series is still being registered
			}
		}
	}
	return b
}

// appendSample writes one `name{labels} value` line; key is the rendered
// label set.
func appendSample(b []byte, name, suffix, key string, v float64) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	b = append(b, key...)
	b = append(b, ' ')
	return append(appendValue(b, v), '\n')
}

// appendHistogram writes the _bucket/_sum/_count triple, splicing the `le`
// label after the series' own labels per the exposition format.
func appendHistogram(b []byte, name string, s *series) []byte {
	h := s.hist
	open, sep := "{", ""
	if s.key != "" {
		open, sep = s.key[:len(s.key)-1], ","
	}
	for i, cum := range h.snapshot() {
		b = append(b, name...)
		b = append(b, "_bucket"...)
		b = append(b, open...)
		b = append(b, sep...)
		b = append(b, `le="`...)
		b = append(b, s.les[i]...)
		b = append(b, `"} `...)
		b = append(appendValue(b, float64(cum)), '\n') // a float: a million reads 1e+06
	}
	b = appendSample(b, name, "_sum", s.key, h.Sum())
	b = append(b, name...)
	b = append(b, "_count"...)
	b = append(b, s.key...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, h.count.Load(), 10)
	return append(b, '\n')
}

// appendValue appends formatValue(v) without the intermediate string.
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, "NaN"...)
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
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
// GC cycles, uptime) under the aq_go_/aq_process_ prefixes. The heap and GC
// readings come from runtime/metrics, which, unlike runtime.ReadMemStats,
// does not stop the world: every scrape and every history sample reads them.
func RegisterRuntimeMetrics(r *Registry) {
	start := time.Now()
	r.GaugeFunc("aq_go_goroutines", "Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	rs := &runtimeSamples{samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"}, // MemStats.HeapAlloc
		{Name: "/gc/cycles/total:gc-cycles"},         // MemStats.NumGC
	}}
	r.GaugeFunc("aq_go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 { return rs.read(0) })
	r.CounterFunc("aq_go_gc_cycles_total", "Completed GC cycles.",
		func() float64 { return rs.read(1) })
	r.GaugeFunc("aq_process_uptime_seconds", "Seconds since the registry's runtime metrics were registered.",
		func() float64 { return time.Since(start).Seconds() })
}

// runtimeSamples reads runtime/metrics samples through one reused slice.
type runtimeSamples struct {
	mu      sync.Mutex
	samples []metrics.Sample
}

func (rs *runtimeSamples) read(i int) float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	metrics.Read(rs.samples[i : i+1])
	return float64(rs.samples[i].Value.Uint64())
}
