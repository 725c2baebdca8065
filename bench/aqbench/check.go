package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/buffer"
	"repro/internal/cq"
	"repro/internal/cql"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/stream"
	"repro/internal/window"
)

// resultRows is how many trailing result rows aqserver keeps per query
// (its result ring) and therefore how many the identity check compares.
const resultRows = 256

// reference is one query's in-process ground truth: the same CQL plan run
// by cq.Run over the same items the server is sent.
type reference struct {
	def     queryDef
	stmt    cql.Query
	handler buffer.Handler
	feed    *feed
	rep     *cq.AggReport
	runNS   float64 // wall time of the cq.Run call
}

// feedSource streams a feed's tuples and closing heartbeat without
// materialising an item slice.
func feedSource(f *feed) stream.Source {
	i := 0
	return stream.FuncSource(func() (stream.Item, bool) {
		switch {
		case i < len(f.tuples):
			i++
			return stream.DataItem(f.tuples[i-1]), true
		case i == len(f.tuples):
			i++
			return f.final, true
		}
		return stream.Item{}, false
	})
}

func runReference(def queryDef, f *feed) (*reference, error) {
	stmt, err := cql.Parse(def.cql)
	if err != nil {
		return nil, fmt.Errorf("query %s: %w", def.name, err)
	}
	h, err := stmt.BuildHandler()
	if err != nil {
		return nil, fmt.Errorf("query %s: %w", def.name, err)
	}
	start := time.Now()
	rep, err := cq.New(feedSource(f)).Handle(h).Window(stmt.Spec, stmt.Agg).AggCore(window.CoreFiba).Run()
	if err != nil {
		return nil, fmt.Errorf("query %s: reference run: %w", def.name, err)
	}
	return &reference{def: def, stmt: stmt, handler: h, feed: f, rep: rep,
		runNS: float64(time.Since(start).Nanoseconds())}, nil
}

// theta is the error bound the query's windows are judged against.
func (r *reference) theta() float64 {
	if r.stmt.Quality > 0 {
		return r.stmt.Quality
	}
	return thetaNominal
}

// resultRow is aqserver's wire form of one window result.
type resultRow struct {
	Window  int64   `json:"window"`
	Start   int64   `json:"start"`
	End     int64   `json:"end"`
	Value   float64 `json:"value"`
	Count   int64   `json:"count"`
	Latency int64   `json:"latency"`
}

// verdict is the identity check's outcome for one query.
type verdict struct {
	sent, applied, shed int64
	unapplied           int64
	windowsWant         int64
	windowsBad          int64 // missing, surplus or unequal
	err                 error // first mismatch, nil when identical
}

// checkIdentity compares the live query against its reference: tuples
// applied, windows emitted, and the trailing result rows bit for bit
// (oracle.SameOutput). Results the server emitted by stream progress must
// equal the reference's pre-flush results exactly; the server is still
// running, so neither side has flushed.
func checkIdentity(c *child, ref *reference, st queryStatus) verdict {
	v := verdict{
		sent:        int64(len(ref.feed.tuples)),
		applied:     st.TuplesIn,
		shed:        st.Shed,
		windowsWant: int64(ref.rep.PreFlush),
	}
	if v.unapplied = v.sent - v.applied - v.shed; v.unapplied < 0 {
		v.unapplied = 0
	}
	fail := func(bad int64, format string, args ...any) verdict {
		v.windowsBad = bad
		v.err = fmt.Errorf("query %s: "+format, append([]any{ref.def.name}, args...)...)
		return v
	}
	if st.Panics != 0 {
		return fail(v.windowsWant, "%d stage panics", st.Panics)
	}
	if v.applied != v.sent {
		return fail(abs64(v.windowsWant-st.Windows), "tuplesIn %d, sent %d (shed %d)", v.applied, v.sent, v.shed)
	}
	if st.Windows != v.windowsWant {
		return fail(abs64(v.windowsWant-st.Windows), "windowsEmitted %d, reference %d", st.Windows, v.windowsWant)
	}
	var rows []resultRow
	if err := c.getJSON(fmt.Sprintf("/queries/%s/results?last=%d", ref.def.name, resultRows), &rows); err != nil {
		return fail(v.windowsWant, "%v", err)
	}
	want := ref.rep.Results[:ref.rep.PreFlush]
	if len(want) > resultRows {
		want = want[len(want)-resultRows:]
	}
	got := make([]window.Result, len(rows))
	for i, r := range rows {
		got[i] = window.Result{Idx: r.Window, Start: r.Start, End: r.End,
			Value: r.Value, Count: r.Count, EmitArrival: r.End + r.Latency}
	}
	if err := oracle.SameOutput(&cq.AggReport{Results: got}, &cq.AggReport{Results: want}); err != nil {
		return fail(int64(len(want)), "%v", err)
	}
	return v
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// streamSums accumulates the stream-time outcomes of a workload over its
// queries' post-warm-up windows, round after round. They depend only on
// the slack decisions, never on speed, so they are exact for a seed as
// long as the identity check passed.
type streamSums struct {
	latencies     []float64 // window end to emission, stream ms
	errSum, okSum float64   // summed relative error; windows within θ
	windows       int
}

func (s *streamSums) add(o streamSums) {
	s.latencies = append(s.latencies, o.latencies...)
	s.errSum, s.okSum, s.windows = s.errSum+o.errSum, s.okSum+o.okSum, s.windows+o.windows
}

type streamMetrics struct {
	latencyP50, latencyP95 float64
	latencySamples         int
	errMeanPct, okPct      float64
	windows                int
}

func (s streamSums) metrics() streamMetrics {
	m := streamMetrics{latencySamples: len(s.latencies), windows: s.windows}
	if len(s.latencies) > 0 {
		sorted := append([]float64(nil), s.latencies...)
		sort.Float64s(sorted)
		m.latencyP50 = groupedQuantile(sorted, 0.50)
		m.latencyP95 = groupedQuantile(sorted, 0.95)
	}
	if s.windows > 0 {
		m.errMeanPct = 100 * s.errSum / float64(s.windows)
		m.okPct = 100 * s.okSum / float64(s.windows)
	}
	return m
}

// groupedQuantile is the q-quantile of whole-millisecond values, each read
// as spread evenly over [v-0.5, v+0.5). Stream time is whole milliseconds
// and a fixed slack puts thousands of windows on the same few values (K
// plus a multiple of the 10 ms tuple interval), so the plain percentile is
// one of those values: the same on every seed, and blind to any shift
// that stops short of the next one. This one moves with the share of
// windows on either side of it.
func groupedQuantile(sorted []float64, q float64) float64 {
	rank := q * float64(len(sorted))
	v := sorted[min(int(rank), len(sorted)-1)]
	below := sort.SearchFloat64s(sorted, v)
	equal := sort.SearchFloat64s(sorted, v+1) - below
	return v - 0.5 + (rank-float64(below))/float64(equal)
}

// measureStream derives latency and quality from the reference reports.
// warmTicks is how many ticks of each feed belong to the warm-up.
func measureStream(refs []*reference, warmTicks int) streamSums {
	var s streamSums
	for _, ref := range refs {
		f := ref.feed
		warmArrival := f.tuples[warmTicks*f.perTick].Arrival
		emitted := ref.rep.Results[:ref.rep.PreFlush]
		lo := 0
		for lo < len(emitted) && emitted[lo].EmitArrival < warmArrival {
			lo++
		}
		emitted = emitted[lo:]
		if len(emitted) == 0 {
			continue
		}
		for _, r := range emitted {
			s.latencies = append(s.latencies, float64(r.Latency()))
		}
		first, last := emitted[0].Idx, emitted[len(emitted)-1].Idx
		var exact []window.Result
		for _, r := range window.Oracle(ref.stmt.Spec, ref.stmt.Agg, f.tuples) {
			if r.Idx >= first && r.Idx <= last {
				exact = append(exact, r)
			}
		}
		q := metrics.Compare(emitted, exact, metrics.CompareOpts{Theta: ref.theta(), SkipEmptyOracle: true})
		s.errSum += q.MeanRelErr * float64(q.Windows)
		s.okSum += q.Compliance * float64(q.Windows)
		s.windows += q.Windows
	}
	return s
}
