package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// histClock is a manually advanced time source.
type histClock struct{ t time.Time }

func (c *histClock) now() time.Time          { return c.t }
func (c *histClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestHistory(reg *Registry, step, retention time.Duration) (*History, *histClock) {
	clk := &histClock{t: time.UnixMilli(1_000_000)}
	h := NewHistory(reg, HistoryOptions{Step: step, Retention: retention, Now: clk.now})
	return h, clk
}

func TestHistorySamplesAllSeriesKinds(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("aq_test_total", "test", L("q", "a"))
	g := reg.Gauge("aq_test_gauge", "test")
	hist := reg.Histogram("aq_test_ms", "test", []float64{1, 10})
	pulled := 7.0
	reg.GaugeFunc("aq_test_fn", "test", func() float64 { return pulled })

	h, clk := newTestHistory(reg, time.Second, time.Minute)
	c.Add(3)
	g.Set(2.5)
	hist.Observe(4)
	hist.Observe(20)
	h.Sample()
	clk.advance(time.Second)
	c.Add(1)
	pulled = 9
	h.Sample()

	all := h.Query(HistoryQuery{})
	// counter + gauge + fn + histogram (count, sum) = 5 readings.
	if len(all) != 5 {
		t.Fatalf("got %d series, want 5: %+v", len(all), all)
	}
	byName := map[string]SeriesHistory{}
	for _, s := range all {
		byName[s.Name] = s
	}
	cs := byName["aq_test_total"]
	if cs.Kind != "counter" || len(cs.Points) != 2 || cs.Points[0].V != 3 || cs.Points[1].V != 4 {
		t.Fatalf("counter history wrong: %+v", cs)
	}
	if cs.Labels["q"] != "a" {
		t.Fatalf("counter labels wrong: %+v", cs.Labels)
	}
	if fn := byName["aq_test_fn"]; fn.Points[0].V != 7 || fn.Points[1].V != 9 {
		t.Fatalf("fn history wrong: %+v", fn)
	}
	if hc := byName["aq_test_ms_count"]; hc.Kind != "counter" || hc.Points[1].V != 2 {
		t.Fatalf("hist count history wrong: %+v", hc)
	}
	if hs := byName["aq_test_ms_sum"]; hs.Points[1].V != 24 {
		t.Fatalf("hist sum history wrong: %+v", hs)
	}
	// Name selector matches histogram readings through the base name.
	sel := h.Query(HistoryQuery{Names: []string{"aq_test_ms"}})
	if len(sel) != 2 {
		t.Fatalf("base-name selector got %d series, want 2", len(sel))
	}
}

// TestHistoryDropsForgottenSeries: Registry.Forget takes a label's series
// out of the exposition, and the next Sample drops their tracks — the
// history is the one place that would otherwise keep them, and what their
// callbacks capture, alive.
func TestHistoryDropsForgottenSeries(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("aq_test_total", "test", L("query", "keep")).Inc()
	reg.Counter("aq_test_total", "test", L("query", "gone")).Inc()
	reg.Histogram("aq_test_ms", "test", []float64{1}, L("query", "gone"), L("stage", "x")).Observe(2)
	reg.GaugeFunc("aq_test_fn", "test", func() float64 { return 1 }, L("query", "gone"))
	h, _ := newTestHistory(reg, time.Second, time.Minute)
	h.Sample()
	if n := len(h.Query(HistoryQuery{})); n != 5 {
		t.Fatalf("%d tracks before Forget, want 5", n)
	}

	reg.Forget(L("query", "gone"))
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), `query="gone"`) || !strings.Contains(out.String(), `query="keep"`) {
		t.Fatalf("exposition after Forget:\n%s", out.String())
	}
	h.Sample()
	all := h.Query(HistoryQuery{})
	if len(all) != 1 || all[0].Labels["query"] != "keep" || len(all[0].Points) != 2 {
		t.Fatalf("tracks after Forget: %+v", all)
	}

	// Registering a forgotten series again starts it afresh.
	if v := reg.Counter("aq_test_total", "test", L("query", "gone")).Value(); v != 0 {
		t.Fatalf("re-registered counter starts at %v", v)
	}
}

// TestHistoryForgetConcurrent runs Forget against registrations, updates,
// callback series, exposition and sampling (a deleted query's series go
// while the server keeps scraping and other queries keep counting); once
// everything is forgotten, the next sample leaves no track behind.
func TestHistoryForgetConcurrent(t *testing.T) {
	reg := NewRegistry()
	h, _ := newTestHistory(reg, time.Second, time.Minute)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lbl := L("query", fmt.Sprintf("q%d", g))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reg.Counter("aq_test_total", "test", lbl).Inc()
				reg.Histogram("aq_test_ms", "test", []float64{1}, lbl).Observe(float64(i))
				reg.GaugeFunc("aq_test_fn", "test", func() float64 { return float64(g) }, lbl)
				if i%50 == 0 {
					reg.Forget(lbl)
					var out testWriter
					if err := reg.WritePrometheus(&out); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		h.Sample()
	}
	close(stop)
	wg.Wait()
	for g := 0; g < 4; g++ {
		reg.Forget(L("query", fmt.Sprintf("q%d", g)))
	}
	h.Sample()
	if all := h.Query(HistoryQuery{}); len(all) != 0 {
		t.Fatalf("%d tracks left after every series was forgotten", len(all))
	}
}

func TestHistoryRingWrapKeepsNewest(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("aq_wrap", "test")
	h, clk := newTestHistory(reg, time.Second, 4*time.Second) // capacity 4
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		h.Sample()
		clk.advance(time.Second)
	}
	s := h.Query(HistoryQuery{Names: []string{"aq_wrap"}})[0]
	if len(s.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(s.Points))
	}
	for i, want := range []float64{6, 7, 8, 9} {
		if s.Points[i].V != want {
			t.Fatalf("point %d = %v, want %v (oldest-first after wrap)", i, s.Points[i].V, want)
		}
	}
	if s.Points[0].T >= s.Points[3].T {
		t.Fatal("points not in time order")
	}
}

func TestHistoryQueryWindowAndDownsample(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("aq_win", "test")
	h, clk := newTestHistory(reg, time.Second, time.Minute)
	start := clk.t.UnixMilli()
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		h.Sample()
		clk.advance(time.Second)
	}
	// Window: last 4 samples only.
	s := h.Query(HistoryQuery{SinceMS: start + 6000})[0]
	if len(s.Points) != 4 || s.Points[0].V != 6 {
		t.Fatalf("windowed query wrong: %+v", s.Points)
	}
	// Downsample to 2s buckets keeps the last point of each bucket.
	s = h.Query(HistoryQuery{StepMS: 2000})[0]
	if len(s.Points) != 5 {
		t.Fatalf("downsampled to %d points, want 5: %+v", len(s.Points), s.Points)
	}
	for i, want := range []float64{1, 3, 5, 7, 9} {
		if s.Points[i].V != want {
			t.Fatalf("downsampled point %d = %v, want %v", i, s.Points[i].V, want)
		}
	}
}

func TestHistoryLabelSelector(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("aq_sel", "test", L("query", "a")).Set(1)
	reg.Gauge("aq_sel", "test", L("query", "b")).Set(2)
	h, _ := newTestHistory(reg, time.Second, time.Minute)
	h.Sample()
	got := h.Query(HistoryQuery{Labels: []Label{L("query", "b")}})
	if len(got) != 1 || got[0].Points[0].V != 2 {
		t.Fatalf("label selector wrong: %+v", got)
	}
}

func TestHistorySampleZeroAllocSteadyState(t *testing.T) {
	reg := NewRegistry()
	for _, q := range []string{"a", "b", "c"} {
		reg.Counter("aq_alloc_total", "test", L("query", q)).Add(1)
		reg.Gauge("aq_alloc_gauge", "test", L("query", q)).Set(1)
	}
	reg.Histogram("aq_alloc_ms", "test", LatencyBuckets()).Observe(3)
	x := 0.0
	reg.GaugeFunc("aq_alloc_fn", "test", func() float64 { return x })
	h, clk := newTestHistory(reg, time.Second, time.Minute)
	h.Sample() // create all tracks
	allocs := testing.AllocsPerRun(100, func() {
		clk.advance(time.Second)
		h.Sample()
	})
	if allocs > 0 {
		t.Fatalf("steady-state Sample allocates %v/op, want 0", allocs)
	}
}

func TestHistoryBurnRate(t *testing.T) {
	reg := NewRegistry()
	// Cumulative "time in violation" ms series: violating 50% of the
	// time over the window against a 10% budget burns at rate 5.
	viol := 0.0
	reg.GaugeFunc("aq_time_in_violation_ms", "test", func() float64 { return viol }, L("query", "q1"))
	h, clk := newTestHistory(reg, time.Second, time.Minute)
	for i := 0; i < 10; i++ {
		h.Sample()
		clk.advance(time.Second)
		viol += 500 // 500ms of violation per 1000ms of wall time
	}
	rate, ok := h.BurnRate("aq_time_in_violation_ms", []Label{L("query", "q1")}, 8*time.Second, 0.10)
	if !ok {
		t.Fatal("BurnRate not ok")
	}
	if rate < 4.9 || rate > 5.1 {
		t.Fatalf("burn rate = %v, want ~5.0", rate)
	}
	// Unknown series / zero budget / single-sample windows are not ok.
	if _, ok := h.BurnRate("aq_nope", nil, time.Minute, 0.1); ok {
		t.Fatal("unknown series should not be ok")
	}
	if _, ok := h.BurnRate("aq_time_in_violation_ms", []Label{L("query", "q1")}, 8*time.Second, 0); ok {
		t.Fatal("zero budget should not be ok")
	}
	if _, ok := h.BurnRate("aq_time_in_violation_ms", []Label{L("query", "q1")}, time.Millisecond, 0.1); ok {
		t.Fatal("sub-sample window should not be ok")
	}
}

func TestHistoryBurnRateCounterReset(t *testing.T) {
	reg := NewRegistry()
	v := 1000.0
	reg.GaugeFunc("aq_reset_ms", "test", func() float64 { return v })
	h, clk := newTestHistory(reg, time.Second, time.Minute)
	h.Sample()
	clk.advance(time.Second)
	v = 10 // restart: cumulative value fell
	h.Sample()
	rate, ok := h.BurnRate("aq_reset_ms", nil, time.Minute, 0.5)
	if !ok || rate != 0 {
		t.Fatalf("reset burn = %v ok=%v, want 0 true (clamped)", rate, ok)
	}
}

func TestHistoryStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("aq_bg", "test").Set(1)
	h := NewHistory(reg, HistoryOptions{Step: time.Millisecond, Retention: time.Second})
	h.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := h.Query(HistoryQuery{}); len(got) == 1 && len(got[0].Points) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background sampler produced no points")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.Stop()
	h.Stop() // idempotent
	// Stop without Start must not hang.
	h2 := NewHistory(reg, HistoryOptions{})
	h2.Stop()
}

// TestHistorySampleReentrantCallback pins the sampler's locking
// discipline: a metric callback that reads the History back (the SLO
// burn-rate gauges query BurnRate at sample time) must not deadlock
// Sample, which therefore may not hold h.mu while invoking callbacks.
func TestHistorySampleReentrantCallback(t *testing.T) {
	reg := NewRegistry()
	clk := &histClock{t: time.UnixMilli(1_000_000)}
	h := NewHistory(reg, HistoryOptions{Step: time.Second, Retention: time.Minute, Now: clk.now})
	var base float64
	reg.GaugeFunc("aq_base_ms", "test", func() float64 { return base }, L("query", "q"))
	reg.GaugeFunc("aq_reentrant_burn", "test", func() float64 {
		rate, ok := h.BurnRate("aq_base_ms", []Label{L("query", "q")}, time.Minute, 0.5)
		if !ok {
			return 0
		}
		return rate
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		h.Sample()
		clk.advance(time.Second)
		base = 500
		h.Sample()
		clk.advance(time.Second)
		h.Sample()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sample deadlocked on a reentrant History callback")
	}
	// The third sample saw the burn of the first two: 500ms violation
	// over 1000ms elapsed against a 0.5 budget = burn 1.0.
	got := h.Query(HistoryQuery{Names: []string{"aq_reentrant_burn"}})
	if len(got) != 1 {
		t.Fatalf("burn series missing: %+v", got)
	}
	last := got[0].Points[len(got[0].Points)-1]
	if last.V != 1.0 {
		t.Fatalf("reentrant burn gauge = %v, want 1.0", last.V)
	}
}
