package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("aq_test_total", "help")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %g, want 3.5", got)
	}
	// Get-or-create: same (name, labels) returns the same instrument.
	if r.Counter("aq_test_total", "help") != c {
		t.Fatal("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("aq_depth", "help", L("query", "q1"))
	g.Set(10)
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %g, want 7", got)
	}
	// A different label set is a different series.
	g2 := r.Gauge("aq_depth", "help", L("query", "q2"))
	if g2 == g {
		t.Fatal("distinct label sets shared a series")
	}
	if g2.Value() != 0 {
		t.Fatal("fresh series not zero")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("aq_lat_ms", "help", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 560.5 {
		t.Fatalf("sum = %g, want 560.5", h.Sum())
	}
	want := []uint64{1, 3, 4, 5} // cumulative: ≤1, ≤10, ≤100, +Inf
	got := h.snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("aq_x_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("counter/gauge name conflict did not panic")
		}
	}()
	r.Gauge("aq_x_total", "help")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9metric", "aq-dash", "aq metric"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "help")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reserved label name __x did not panic")
			}
		}()
		r.Counter("aq_ok_total", "help", L("__x", "v"))
	}()
}

func TestGaugeFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("aq_k", "help", func() float64 { return 1 }, L("query", "q"))
	// A restarted component re-claims its series.
	r.GaugeFunc("aq_k", "help", func() float64 { return 2 }, L("query", "q"))
	var out testWriter
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if want := "aq_k{query=\"q\"} 2\n"; !strings.Contains(out.s, want) {
		t.Fatalf("exposition missing %q:\n%s", want, out.s)
	}
}

// TestRegistryConcurrency hammers registration, writes and scrapes from
// many goroutines; run under -race it is the registry's thread-safety
// gate. Final counts are asserted so the atomics are also checked for
// lost updates.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lbl := L("query", fmt.Sprintf("q%d", g%4))
			for i := 0; i < perG; i++ {
				r.Counter("aq_conc_total", "help", lbl).Inc()
				r.Gauge("aq_conc_gauge", "help", lbl).Set(float64(i))
				r.Histogram("aq_conc_hist", "help", []float64{10, 100}, lbl).Observe(float64(i))
				if i%100 == 0 {
					var out testWriter
					if err := r.WritePrometheus(&out); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var total float64
	for q := 0; q < 4; q++ {
		total += r.Counter("aq_conc_total", "help", L("query", fmt.Sprintf("q%d", q))).Value()
	}
	if want := float64(goroutines * perG); total != want {
		t.Fatalf("lost counter updates: total = %g, want %g", total, want)
	}
	h := r.Histogram("aq_conc_hist", "help", []float64{10, 100}, L("query", "q0"))
	if h.Count() != 4*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count(), 4*perG)
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	lb := LatencyBuckets()
	if lb[0] != 1 || lb[len(lb)-1] != 131072 {
		t.Fatalf("latency buckets span = [%g, %g]", lb[0], lb[len(lb)-1])
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		math.NaN():     "NaN",
		math.Inf(1):    "+Inf",
		math.Inf(-1):   "-Inf",
		0:              "0",
		1.5:            "1.5",
		12345678901234: "1.2345678901234e+13",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

type testWriter struct{ s string }

func (w *testWriter) Write(p []byte) (int, error) {
	w.s += string(p)
	return len(p), nil
}
