package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricType enumerates the Prometheus exposition types in use.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Counter is a monotonically non-decreasing value. The zero value is
// usable but unregistered; obtain registered counters from a Registry.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative deltas panic: a counter that can
// go down is a gauge, and rate() over a sawtooth is silently wrong.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic("obs: counter decrease")
	}
	addFloat(&c.bits, delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta (negative allowed).
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat atomically adds delta to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: counts of observations ≤ each upper bound, plus sum and count.
// Buckets are chosen at registration and never change, which keeps
// Observe lock-free (one atomic add after a linear bucket scan).
type Histogram struct {
	bounds []float64       // sorted ascending; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts aligned with bounds plus the
// +Inf bucket. The individual loads are atomic but the snapshot as a
// whole is not; exposition tolerates that (Prometheus scrapes do too).
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// LatencyBuckets is a general-purpose exponential bucket ladder for
// stream-time latencies in ms: 1ms … ~100s, doubling.
func LatencyBuckets() []float64 {
	b := make([]float64, 0, 18)
	for v := 1.0; v <= 131072; v *= 2 {
		b = append(b, v)
	}
	return b
}

// ExponentialBuckets returns n buckets starting at start, each factor×
// the previous. It panics on invalid arguments.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: invalid exponential buckets")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// series is one label-distinguished time series inside a family.
type series struct {
	labels []Label
	// exactly one of the following is set
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// fn is the CounterFunc / GaugeFunc callback: stored after the series is
	// published and replaced by a re-registration, while scrapes and the
	// history's sampler read it without the family's lock.
	fn atomic.Pointer[func() float64]
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	mu     sync.Mutex
	series map[string]*series // keyed by rendered label set
}

// Registry owns metric families and renders them for exposition.
// All methods are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// familyFor returns the family, creating it on first use and enforcing
// that a name is never reused with a different type.
func (r *Registry) familyFor(name, help string, typ metricType) *family {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.fams[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// getOrCreate returns the series for the label set, creating it with
// make when absent.
func (f *family) getOrCreate(labels []Label, make func() *series) *series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make()
	s.labels = labels
	f.series[key] = s
	return s
}

// Counter returns the counter for (name, labels), registering it on
// first use. Help is recorded from the first registration.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	mustValidLabels(labels)
	f := r.familyFor(name, help, typeCounter)
	s := f.getOrCreate(labels, func() *series { return &series{counter: &Counter{}} })
	if s.counter == nil {
		panic(fmt.Sprintf("obs: %s%s already registered as a callback counter", name, labelKey(labels)))
	}
	return s.counter
}

// Gauge returns the gauge for (name, labels), registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	mustValidLabels(labels)
	f := r.familyFor(name, help, typeGauge)
	s := f.getOrCreate(labels, func() *series { return &series{gauge: &Gauge{}} })
	if s.gauge == nil {
		panic(fmt.Sprintf("obs: %s%s already registered as a callback gauge", name, labelKey(labels)))
	}
	return s.gauge
}

// Histogram returns the histogram for (name, labels), registering it on
// first use with the given bucket upper bounds (sorted ascending; the
// +Inf bucket is implicit). Later calls for an existing series ignore
// buckets and return the original.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	mustValidLabels(labels)
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets must be sorted and distinct")
		}
	}
	f := r.familyFor(name, help, typeHistogram)
	s := f.getOrCreate(labels, func() *series {
		bounds := append([]float64(nil), buckets...)
		return &series{hist: &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}}
	})
	return s.hist
}

// GaugeFunc registers a pull-style gauge: fn runs at scrape time.
// Re-registering the same (name, labels) replaces the callback, so a
// restarted component can re-claim its series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, typeGauge, fn, labels)
}

// CounterFunc registers a pull-style counter over an externally
// maintained cumulative count (e.g. a total guarded by someone else's
// mutex). fn must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, typeCounter, fn, labels)
}

// Forget drops every series that carries the label l, in every family: a
// component gone for good (a deleted query) takes its series, and whatever
// their callbacks hold, with it. Instruments already handed out keep working
// but are no longer exported, and registering a forgotten series again
// creates a fresh one. Families stay, emptied or not.
func (r *Registry) Forget(l Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.fams {
		f.mu.Lock()
		for key, s := range f.series {
			if slices.Contains(s.labels, l) {
				delete(f.series, key)
			}
		}
		f.mu.Unlock()
	}
}

func (r *Registry) registerFunc(name, help string, typ metricType, fn func() float64, labels []Label) {
	mustValidLabels(labels)
	if fn == nil {
		panic("obs: nil metric callback")
	}
	f := r.familyFor(name, help, typ)
	s := f.getOrCreate(labels, func() *series { return &series{} })
	if s.counter != nil || s.gauge != nil || s.hist != nil {
		panic(fmt.Sprintf("obs: %s%s already registered as a direct instrument", name, labelKey(labels)))
	}
	s.fn.Store(&fn)
}

// sortedFamilies snapshots the family list ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries snapshots a family's series ordered by label key.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	f.mu.Unlock()
	return out
}

// labelKey renders a label set into a stable map key / exposition infix:
// {a="x",b="y"} (empty string for no labels).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func mustValidName(name string) {
	if !validName(name, true) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

func mustValidLabels(labels []Label) {
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		if !validName(l.Name, false) || strings.HasPrefix(l.Name, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Name))
		}
		if seen[l.Name] {
			panic(fmt.Sprintf("obs: duplicate label name %q", l.Name))
		}
		seen[l.Name] = true
	}
}

// validName checks [a-zA-Z_:][a-zA-Z0-9_:]* (colons allowed for metric
// names only, per the Prometheus data model).
func validName(s string, allowColon bool) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(allowColon && r == ':') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
