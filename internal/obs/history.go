package obs

import (
	"sort"
	"sync"
	"time"
)

// HistoryOptions configures a History sampler.
type HistoryOptions struct {
	// Step is the sampling interval (<= 0 picks 1s).
	Step time.Duration
	// Retention is how far back samples are kept (<= 0 picks 10m).
	// Capacity is Retention/Step points per series, fixed at track
	// creation.
	Retention time.Duration
	// Now supplies sample timestamps; nil means time.Now. The
	// deterministic tests inject a fake.
	Now func() time.Time
}

// Point is one sampled value: T is the sample wall time in Unix
// milliseconds, V the instantaneous reading.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// SeriesHistory is the queryable history of one series (one reading of
// it: histograms contribute separate _count and _sum readings).
type SeriesHistory struct {
	// Name is the catalogued metric name; histogram readings carry the
	// _count / _sum suffix.
	Name string `json:"name"`
	// Kind is "counter" or "gauge" — what rate math is valid on the
	// points (histogram _count/_sum read as counters).
	Kind string `json:"kind"`
	// Labels are the series labels, in registration order.
	Labels map[string]string `json:"labels,omitempty"`
	// Points are the retained samples, oldest first.
	Points []Point `json:"points"`
}

// trackKey identifies one reading of one series by pointer identity:
// the series is stable until the registry forgets it, and a histogram
// yields two readings (count, sum) distinguished by sub.
type trackKey struct {
	s   *series
	sub uint8 // 0 = value, 1 = histogram count, 2 = histogram sum
}

// track is the ring buffer behind one reading.
type track struct {
	name   string
	kind   string
	labels []Label
	key    trackKey
	gen    uint64 // the Sample that last read the series

	ring []Point // fixed capacity, filled circularly
	head int     // next write position
	n    int     // live points (<= len(ring))
}

func (t *track) push(p Point) {
	t.ring[t.head] = p
	t.head = (t.head + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
}

// at returns the i-th live point, oldest first.
func (t *track) at(i int) Point {
	start := t.head - t.n
	if start < 0 {
		start += len(t.ring)
	}
	return t.ring[(start+i)%len(t.ring)]
}

// History is a dependency-free time-series store over a Registry: a
// sampler (manual Sample calls or the Start background loop) snapshots
// every registered series into fixed-capacity ring buffers. Sampling is
// zero-alloc once every series has been seen, and holds registry locks
// only while copying series lists — callback metrics run outside them,
// matching the exposition path's locking discipline.
type History struct {
	reg       *Registry
	step      time.Duration
	capacity  int
	retention time.Duration
	now       func() time.Time

	mu     sync.Mutex
	tracks map[trackKey]*track
	gen    uint64 // Sample calls so far

	// sampler scratch, reused across Sample calls (zero-alloc steady
	// state).
	scratchFams   []*family
	scratchSeries []*series
	scratchReads  []reading

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewHistory builds a sampler over reg. Call Sample directly or Start a
// background loop.
func NewHistory(reg *Registry, opts HistoryOptions) *History {
	if opts.Step <= 0 {
		opts.Step = time.Second
	}
	if opts.Retention <= 0 {
		opts.Retention = 10 * time.Minute
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	capacity := int(opts.Retention / opts.Step)
	if capacity < 2 {
		capacity = 2
	}
	return &History{
		reg:       reg,
		step:      opts.Step,
		capacity:  capacity,
		retention: opts.Retention,
		now:       opts.Now,
		tracks:    make(map[trackKey]*track),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Step returns the configured sampling interval.
func (h *History) Step() time.Duration { return h.step }

// Retention returns the configured retention horizon.
func (h *History) Retention() time.Duration { return h.retention }

// Start launches the background sampling loop. Stop ends it.
func (h *History) Start() {
	h.startOnce.Do(func() {
		go func() {
			defer close(h.done)
			tick := time.NewTicker(h.step)
			defer tick.Stop()
			for {
				select {
				case <-h.stop:
					return
				case <-tick.C:
					h.Sample()
				}
			}
		}()
	})
}

// Stop ends the background loop (no-op if Start never ran) and waits
// for it to exit.
func (h *History) Stop() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	h.startOnce.Do(func() { close(h.done) })
	<-h.done
}

// reading is one sampled value staged before it is pushed into its
// track: values (including fn callbacks) are read with no History lock
// held, so a callback that queries the History itself — the SLO
// burn-rate gauges do exactly that — cannot deadlock the sampler.
type reading struct {
	f   *family
	s   *series
	sub uint8
	v   float64
}

// Sample takes one snapshot of every registry series and drops the
// tracks of series the registry has forgotten (Registry.Forget). Safe to
// call concurrently with Query and with metric updates — including metric
// callbacks that read this History back (e.g. burn-rate gauges).
func (h *History) Sample() {
	nowMS := h.now().UnixMilli()

	// Copy the family list under the registry lock, then walk each
	// family's series under its own lock — values and fn callbacks are
	// read only after both are released, so a callback that takes an
	// application mutex can never deadlock against a concurrent
	// registration. h.mu is taken only afterwards, for the push.
	h.reg.mu.Lock()
	fams := h.scratchFams[:0]
	for _, f := range h.reg.fams {
		fams = append(fams, f)
	}
	h.reg.mu.Unlock()
	h.scratchFams = fams

	reads := h.scratchReads[:0]
	for _, f := range fams {
		f.mu.Lock()
		ss := h.scratchSeries[:0]
		for _, s := range f.series {
			ss = append(ss, s)
		}
		f.mu.Unlock()
		h.scratchSeries = ss

		for _, s := range ss {
			switch {
			case s.hist != nil:
				reads = append(reads,
					reading{f: f, s: s, sub: 1, v: float64(s.hist.Count())},
					reading{f: f, s: s, sub: 2, v: s.hist.Sum()})
			case s.counter != nil:
				reads = append(reads, reading{f: f, s: s, v: s.counter.Value()})
			case s.gauge != nil:
				reads = append(reads, reading{f: f, s: s, v: s.gauge.Value()})
			default:
				if fn := s.fn.Load(); fn != nil {
					reads = append(reads, reading{f: f, s: s, v: (*fn)()})
				} // else the series is still being registered; skip this round
			}
		}
		clear(ss) // the scratch must not keep a forgotten series alive
	}
	h.scratchReads = reads

	h.mu.Lock()
	h.gen++
	for _, r := range reads {
		t := h.trackFor(r.f, r.s, r.sub)
		t.push(Point{T: nowMS, V: r.v})
		t.gen = h.gen
	}
	// Every reading has a track, so more tracks than readings means some
	// series are gone.
	if len(h.tracks) > len(reads) {
		for key, t := range h.tracks {
			if t.gen != h.gen {
				delete(h.tracks, key)
			}
		}
	}
	h.mu.Unlock()
	clear(reads)
}

// trackFor returns the ring for (series, sub), creating it on first
// sight. Caller holds h.mu.
func (h *History) trackFor(f *family, s *series, sub uint8) *track {
	key := trackKey{s: s, sub: sub}
	t, ok := h.tracks[key]
	if !ok {
		name, kind := f.name, string(f.typ)
		switch sub {
		case 1:
			name, kind = f.name+"_count", "counter"
		case 2:
			name, kind = f.name+"_sum", "counter"
		}
		t = &track{
			name:   name,
			kind:   kind,
			labels: s.labels,
			key:    key,
			ring:   make([]Point, h.capacity),
		}
		h.tracks[key] = t
	}
	return t
}

// HistoryQuery selects series histories. Zero value selects everything
// at native resolution.
type HistoryQuery struct {
	// Names restricts to these metric names (histogram readings match
	// both the base name and the suffixed reading name). Empty = all.
	Names []string
	// Labels is a subset match: every pair listed must be present on
	// the series.
	Labels []Label
	// SinceMS drops points older than this Unix-millisecond time.
	SinceMS int64
	// StepMS downsamples to at most one point per StepMS bucket
	// (keeping the last point of each bucket). <= 0 = native step.
	StepMS int64
}

// Query returns matching series histories, sorted by (name, labels),
// each with points oldest-first. The returned slices are copies.
func (h *History) Query(q HistoryQuery) []SeriesHistory {
	h.mu.Lock()
	tracks := make([]*track, 0, len(h.tracks))
	for _, t := range h.tracks {
		if q.matches(t) {
			tracks = append(tracks, t)
		}
	}
	out := make([]SeriesHistory, 0, len(tracks))
	for _, t := range tracks {
		sh := SeriesHistory{Name: t.name, Kind: t.kind}
		if len(t.labels) > 0 {
			sh.Labels = make(map[string]string, len(t.labels))
			for _, l := range t.labels {
				sh.Labels[l.Name] = l.Value
			}
		}
		var lastBucket int64 = -1
		for i := 0; i < t.n; i++ {
			p := t.at(i)
			if p.T < q.SinceMS {
				continue
			}
			if q.StepMS > 0 {
				b := p.T / q.StepMS
				if b == lastBucket && len(sh.Points) > 0 {
					sh.Points[len(sh.Points)-1] = p // keep last of bucket
					continue
				}
				lastBucket = b
			}
			sh.Points = append(sh.Points, p)
		}
		out = append(out, sh)
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelKeyOf(out[i].Labels) < labelKeyOf(out[j].Labels)
	})
	return out
}

func labelKeyOf(m map[string]string) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for _, k := range keys {
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, m[k]...)
		b = append(b, ',')
	}
	return string(b)
}

func (q *HistoryQuery) matches(t *track) bool {
	if len(q.Names) > 0 {
		ok := false
		for _, n := range q.Names {
			if n == t.name || (t.key.sub != 0 && sameBase(n, t.name)) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, want := range q.Labels {
		found := false
		for _, l := range t.labels {
			if l.Name == want.Name && l.Value == want.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// sameBase reports whether reading name `full` is `base` plus a
// histogram suffix.
func sameBase(base, full string) bool {
	return full == base+"_count" || full == base+"_sum"
}

// BurnRate computes the SRE multi-window burn rate of a cumulative
// millisecond counter against a fractional budget over the trailing
// window: (Δvalue_ms / Δelapsed_ms) / budget. A burn rate of 1.0 means
// the budget is being consumed exactly as fast as it accrues; > 1
// means it will be exhausted early. Returns ok=false when fewer than
// two in-window samples exist or budget <= 0.
func (h *History) BurnRate(name string, labels []Label, window time.Duration, budget float64) (rate float64, ok bool) {
	if budget <= 0 {
		return 0, false
	}
	sinceMS := h.now().Add(-window).UnixMilli()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range h.tracks {
		if t.name != name || !labelsMatch(t.labels, labels) {
			continue
		}
		var first, last Point
		seen := 0
		for i := 0; i < t.n; i++ {
			p := t.at(i)
			if p.T < sinceMS {
				continue
			}
			if seen == 0 {
				first = p
			}
			last = p
			seen++
		}
		if seen < 2 || last.T <= first.T {
			return 0, false
		}
		delta := last.V - first.V
		if delta < 0 {
			delta = 0 // counter reset
		}
		frac := delta / float64(last.T-first.T)
		return frac / budget, true
	}
	return 0, false
}

// labelsMatch reports exact label-set equality independent of order.
func labelsMatch(have, want []Label) bool {
	if len(have) != len(want) {
		return false
	}
	for _, w := range want {
		found := false
		for _, l := range have {
			if l == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
