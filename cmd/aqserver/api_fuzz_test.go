package main

// FuzzQueryAPI: arbitrary bytes POSTed at the query-registration
// endpoint must come back as a 4xx — never a 5xx, never a panic. The
// app is built once with no registered sources, so even a structurally
// valid registration cannot bind and the whole input space maps to
// client errors. Whatever the app started must be gone after its drain,
// as apiTestApp holds every other app to.

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"testing"
)

func FuzzQueryAPI(f *testing.F) {
	cfg := appConfig{
		apiOn: true,
		batch: 8,
		log:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	// Under -fuzz the engine's coordinator starts os/signal's watch
	// goroutine inside f.Fuzz, once per process and for good: start it
	// first, so that the count before newApp has it and what is left over
	// after the drain is the app's.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	signal.Stop(sig)
	base := runtime.NumGoroutine()
	a, err := newApp(cfg)
	if err != nil {
		f.Fatal(err)
	}
	defer func() {
		a.drain()
		settleGoroutines(f, base)
	}()
	h := a.srv.handler()

	f.Add([]byte(`{"name":"q1","cql":"SELECT sum FROM s WINDOW 2s SLIDE 1s QUALITY 1%"}`))
	f.Add([]byte(`{"name":"q1","tenant":"t","cql":""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"name":"q1","cql":"SELECT sum FROM trace('x') WINDOW 1s SLIDE 1s QUALITY 1%"}`))
	f.Add([]byte(`{"name":"../etc","cql":"x"}`))
	f.Add([]byte(`{"unknown":"field"}`))
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/api/queries", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("POST /api/queries with %q: status %d, want 4xx", body, rec.Code)
		}
	})
}
