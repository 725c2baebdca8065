package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSparkline(t *testing.T) {
	cases := []struct {
		vals  []float64
		width int
		want  string
	}{
		{nil, 8, ""},
		{[]float64{1, 2, 3}, 0, ""},
		{[]float64{5, 5, 5}, 8, "▁▁▁"}, // flat series = lowest bar
		{[]float64{0, 7}, 8, "▁█"},     // full range
		{[]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8, "▁▂▃▄▅▆▇█"}, // one bar per level
		{[]float64{0, 0, 0, 7}, 2, "▁█"},                   // keeps the newest width points
	}
	for i, c := range cases {
		if got := sparkline(c.vals, c.width); got != c.want {
			t.Errorf("case %d: sparkline(%v, %d) = %q, want %q", i, c.vals, c.width, got, c.want)
		}
	}
}

func fixtureStats() *topStats {
	return &topStats{
		NowMS:  1_754_640_000_000,
		StepMS: 1000,
		Series: []topSeries{
			{Name: "aq_quality_realized_err_adjusted", Labels: map[string]string{"query": "q1"},
				Points: []topPoint{{T: 1, V: 0.001}, {T: 2, V: 0.004}, {T: 3, V: 0.002}}},
			{Name: "aq_buffer_k_ms", Labels: map[string]string{"query": "q1"},
				Points: []topPoint{{T: 1, V: 200}, {T: 2, V: 400}, {T: 3, V: 300}}},
			{Name: "aq_wire_latency_ms_count", Labels: map[string]string{"source": "sensors"},
				Points: []topPoint{{T: 1, V: 10}, {T: 2, V: 20}, {T: 3, V: 20}}},
			{Name: "aq_wire_latency_ms_sum", Labels: map[string]string{"source": "sensors"},
				Points: []topPoint{{T: 1, V: 500}, {T: 2, V: 1500}, {T: 3, V: 1500}}},
		},
		Queries: map[string]topQuery{
			"q1": {Tenant: "t1", Health: "feeding", Theta: 0.01, K: 300, RealizedErr: 0.002,
				TuplesIn: 900, Windows: 40, Shed: 100, BurnFast: 2.5, BurnSlow: 1.25},
		},
		Tenants: map[string]topTenant{
			"t1": {Queries: 1, TuplesIn: 900, Windows: 40, Shed: 100},
		},
	}
}

func TestRenderTop(t *testing.T) {
	var b strings.Builder
	renderTop(&b, fixtureStats())
	out := b.String()
	for _, want := range []string{
		"q1", "t1", "feeding",
		"0.0100",       // θ
		"0.00200",      // realized error
		"300",          // K
		"10.00%",       // shed fraction: 100/(900+100)
		"2.50", "1.25", // burn rates
		"err ", "K   ", // sparkline rows
		"wire latency",
		"100.0ms", // Δsum/Δcount of the second interval carried forward
		"TENANT",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("frame missing %q:\n%s", want, out)
		}
	}
}

func TestWireLatencySeries(t *testing.T) {
	got := wireLatencySeries(fixtureStats())
	vals, ok := got["sensors"]
	if !ok {
		t.Fatalf("no sensors series: %v", got)
	}
	// Interval 1: Δsum/Δcount = 1000/10 = 100. Interval 2: no new
	// observations, previous average carried forward.
	if len(vals) != 2 || vals[0] != 100 || vals[1] != 100 {
		t.Fatalf("wire latency = %v, want [100 100]", vals)
	}
}

func TestRunTopPollsServer(t *testing.T) {
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/stats" {
			http.NotFound(w, r)
			return
		}
		if !strings.Contains(r.URL.Query().Get("series"), "aq_wire_latency_ms") {
			t.Errorf("series selector missing: %q", r.URL.RawQuery)
		}
		hits++
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"nowMs":1754640000000,"stepMs":1000,"series":[],` +
			`"queries":{"q1":{"tenant":"t1","health":"feeding","theta":0.01}},"tenants":{}}`))
	}))
	defer ts.Close()

	var b strings.Builder
	if err := runTop(&b, ts.URL, time.Millisecond, 3); err != nil {
		t.Fatal(err)
	}
	if hits != 3 {
		t.Fatalf("polled %d times, want 3", hits)
	}
	if n := strings.Count(b.String(), "fleet console"); n != 3 {
		t.Fatalf("drew %d frames, want 3", n)
	}
}

func TestRunTopFirstErrorIsFatal(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no history: run aqserver with -obs", http.StatusNotFound)
	}))
	defer ts.Close()
	var b strings.Builder
	if err := runTop(&b, ts.URL, time.Millisecond, 2); err == nil {
		t.Fatal("want an error when the server has no stats plane")
	}
}
