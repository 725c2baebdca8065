package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

// BenchmarkReadPlane is what one read of the observability plane costs the
// server, for the two reads an operator's poller repeats: the windowed
// history (GET /api/stats?window=10s) and the Prometheus scrape (GET
// /metrics). The app is the one aqbench's durable_readers workload runs —
// the compiled-in queries plus one durable runtime query over a network
// source — with a dozen history samples taken, so every series carries
// points inside the window. Each read is served through httptest by the
// server's own mux, request instruments included. cpu-ns/read is the
// process's user + system CPU from getrusage over the loop; allocs/op is
// the testing package's count.
func BenchmarkReadPlane(b *testing.B) {
	a, err := newApp(appConfig{obs: true, apiOn: true, statsStep: time.Hour,
		durableDir: b.TempDir(), snapshotEvery: 50_000,
		log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	defer a.drain()
	h := a.srv.handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	for _, reg := range []struct{ path, body string }{
		{"/api/sources", `{"name":"s0"}`},
		{"/api/queries", `{"name":"q0","cql":"SELECT sum FROM s0 WINDOW 10s SLIDE 1s HANDLER kslack(500ms)"}`},
	} {
		if rec := serve(http.MethodPost, reg.path, reg.body); rec.Code != http.StatusCreated {
			b.Fatalf("POST %s = %d %s", reg.path, rec.Code, rec.Body)
		}
	}
	for range 12 {
		a.srv.history.Sample()
	}
	for _, read := range []struct{ name, path string }{
		{"stats", "/api/stats?window=10s"},
		{"metrics", "/metrics"},
	} {
		b.Run(read.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, read.path, nil)
			b.ReportAllocs()
			b.ResetTimer()
			cpu0 := processCPU()
			for range b.N {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("GET %s = %d %s", read.path, rec.Code, rec.Body)
				}
			}
			cpu := processCPU() - cpu0
			b.StopTimer()
			b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N), "cpu-ns/read")
		})
	}
}

// processCPU is the process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
