package core

import (
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/window"
)

// runPipeline drives a disorder handler into a window operator and returns
// emitted results — the same wiring the experiment harness uses.
func runPipeline(h buffer.Handler, tuples []stream.Tuple, spec window.Spec, agg window.Factory) []window.Result {
	p := newPipe(h, spec, agg)
	for _, t := range tuples {
		p.insert(stream.DataItem(t), t.Arrival)
	}
	return p.finish()
}

// pipe is what cq.Exec does between a handler and a DropLate window
// operator, for this package's tests (which cannot import cq): a handler
// that takes feedback inserts by InsertRun, and after each run the operator
// sees what it released and the handler hears what the operator reported.
type pipe struct {
	h   buffer.Handler
	fb  buffer.FeedbackHandler
	op  *window.Op
	now stream.Time
	rel []stream.Tuple
	res []window.Result
	fin []window.Final
}

func newPipe(h buffer.Handler, spec window.Spec, agg window.Factory) *pipe {
	p := &pipe{h: h, op: window.NewOp(spec, agg, window.DropLate, 0)}
	if fb, ok := h.(buffer.FeedbackHandler); ok && fb.FeedbackHorizon() > 0 {
		p.fb = fb
		p.op.SetFeedback(fb.FeedbackHorizon())
	}
	return p
}

func (p *pipe) insert(it stream.Item, now stream.Time) {
	p.now = now
	if p.fb == nil {
		p.observe(p.h.Insert(it, p.rel[:0]))
		return
	}
	p.rel, _, _ = p.fb.InsertRun([]stream.Item{it}, p.rel[:0], nil)
	p.observe(p.rel)
}

func (p *pipe) observe(rel []stream.Tuple) {
	for _, r := range rel {
		p.res = p.op.Observe(r, p.now, p.res)
	}
	if p.fb != nil {
		p.fin = p.op.Finals(p.fin[:0])
		p.fb.Feedback(p.fin)
	}
}

// finish flushes the handler into the operator and the operator, and
// returns every result.
func (p *pipe) finish() []window.Result {
	p.observe(p.h.Flush(p.rel[:0]))
	return p.op.Flush(p.now, p.res)
}

func sensorTuples(n int, seed uint64) []stream.Tuple {
	return gen.Sensor(n, seed).Arrivals()
}

func defaultCfg(theta float64) Config {
	return Config{
		Theta: theta,
		Spec:  window.Spec{Size: 10 * stream.Second, Slide: stream.Second},
		Agg:   window.Sum(),
	}
}

func TestAQKSlackPanicsOnBadConfig(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero theta did not panic")
			}
		}()
		NewAQKSlack(Config{Theta: 0, Spec: window.Spec{Size: 10, Slide: 10}, Agg: window.Sum()})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("bad spec did not panic")
			}
		}()
		NewAQKSlack(Config{Theta: 0.1, Spec: window.Spec{Size: 0, Slide: 1}, Agg: window.Sum()})
	}()
}

func TestAQKSlackConservesTuples(t *testing.T) {
	tuples := sensorTuples(20000, 21)
	h := NewAQKSlack(defaultCfg(0.01))
	var out []stream.Tuple
	for _, tp := range tuples {
		out = h.Insert(stream.DataItem(tp), out)
	}
	out = h.Flush(out)
	if len(out) != len(tuples) {
		t.Fatalf("conservation violated: %d in, %d out", len(tuples), len(out))
	}
	seen := make(map[uint64]bool, len(out))
	for _, tp := range out {
		if seen[tp.Seq] {
			t.Fatalf("duplicate seq %d", tp.Seq)
		}
		seen[tp.Seq] = true
	}
}

func TestAQKSlackAdapts(t *testing.T) {
	tuples := sensorTuples(50000, 22)
	h := NewAQKSlack(defaultCfg(0.01))
	runPipeline(h, tuples, h.cfg.Spec, h.cfg.Agg)
	q := h.Quality()
	if q.Adaptations == 0 {
		t.Fatal("no adaptation steps ran")
	}
	if q.FinalizedWins == 0 {
		t.Fatal("no realized-error feedback produced")
	}
	if len(h.Trace()) != q.Adaptations {
		t.Fatalf("trace length %d != adaptations %d", len(h.Trace()), q.Adaptations)
	}
	if h.K() <= 0 {
		t.Fatalf("slack stayed at %d on a disordered stream with tight theta", h.K())
	}
}

func TestAQKSlackMeetsQualityBound(t *testing.T) {
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	tuples := sensorTuples(100000, 23)
	for _, theta := range []float64{0.005, 0.02, 0.1} {
		cfg := defaultCfg(theta)
		h := NewAQKSlack(cfg)
		results := runPipeline(h, tuples, spec, cfg.Agg)
		oracle := window.Oracle(spec, cfg.Agg, tuples)
		q := metrics.Compare(results, oracle, metrics.CompareOpts{
			Theta: theta, SkipWarmup: 20, SkipEmptyOracle: true,
		})
		// The bound is on per-window error in steady state; accept the
		// mean comfortably under theta and p95 within ~2x (the controller
		// targets safety*theta = 0.8*theta on average, not a hard
		// worst-case guarantee).
		if q.MeanRelErr > theta {
			t.Errorf("theta=%v: mean error %v exceeds bound (%v)", theta, q.MeanRelErr, q)
		}
		if q.P95RelErr > 3*theta+0.002 {
			t.Errorf("theta=%v: p95 error %v far above bound (%v)", theta, q.P95RelErr, q)
		}
	}
}

func TestAQKSlackLatencyOrdersByTheta(t *testing.T) {
	// Looser quality bounds must buy lower latency (smaller steady K).
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	tuples := sensorTuples(80000, 24)
	meanK := func(theta float64) float64 {
		h := NewAQKSlack(defaultCfg(theta))
		runPipeline(h, tuples, spec, window.Sum())
		tr := h.Trace()
		if len(tr) == 0 {
			t.Fatalf("theta=%v: empty trace", theta)
		}
		var sum float64
		for _, s := range tr[len(tr)/2:] { // steady-state half
			sum += float64(s.K)
		}
		return sum / float64(len(tr)-len(tr)/2)
	}
	tight := meanK(0.002)
	loose := meanK(0.1)
	if loose >= tight {
		t.Fatalf("steady K not monotone in theta: K(0.2%%)=%v <= K(10%%)=%v", tight, loose)
	}
}

func TestAQKSlackBeatsMaxSlackLatency(t *testing.T) {
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	tuples := sensorTuples(80000, 25)
	cfg := defaultCfg(0.02)
	aq := NewAQKSlack(cfg)
	aqRes := runPipeline(aq, tuples, spec, cfg.Agg)
	ms := buffer.NewMaxSlack()
	msRes := runPipeline(ms, tuples, spec, cfg.Agg)
	aqLat := metrics.Latency(aqRes, 20)
	msLat := metrics.Latency(msRes, 20)
	if aqLat.Mean >= msLat.Mean {
		t.Fatalf("AQ latency %v not below MAX-slack %v", aqLat.Mean, msLat.Mean)
	}
}

func TestAQKSlackHeartbeatsAdvance(t *testing.T) {
	cfg := defaultCfg(0.05)
	h := NewAQKSlack(cfg)
	var out []stream.Tuple
	out = h.Insert(stream.DataItem(stream.Tuple{TS: 1000, Arrival: 1000}), out)
	out = h.Insert(stream.HeartbeatItem(100*stream.Second), out)
	if len(out) != 1 {
		t.Fatalf("heartbeat did not drain buffer: %d released", len(out))
	}
}

func TestAQKSlackString(t *testing.T) {
	h := NewAQKSlack(defaultCfg(0.01))
	if s := h.String(); !strings.Contains(s, "aq-kslack") || !strings.Contains(s, "theta=0.01") {
		t.Fatalf("String = %q", s)
	}
}

func TestAQKSlackTraceMonotoneTime(t *testing.T) {
	h := NewAQKSlack(defaultCfg(0.02))
	runPipeline(h, sensorTuples(30000, 27), h.cfg.Spec, h.cfg.Agg)
	tr := h.Trace()
	for i := 1; i < len(tr); i++ {
		if tr[i].At < tr[i-1].At {
			t.Fatalf("trace time went backwards at %d", i)
		}
		if tr[i].K < 0 || tr[i].K > h.kMax() {
			t.Fatalf("trace K out of bounds: %+v", tr[i])
		}
	}
}
