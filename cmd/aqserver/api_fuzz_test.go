package main

// FuzzQueryAPI: arbitrary bytes POSTed at the query-registration
// endpoint must come back as a 4xx — never a 5xx, never a panic. The
// app is built once with no registered sources, so even a structurally
// valid registration cannot bind and the whole input space maps to
// client errors.

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

func FuzzQueryAPI(f *testing.F) {
	cfg := appConfig{
		apiOn: true,
		batch: 8,
		log:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	a, err := newApp(cfg)
	if err != nil {
		f.Fatal(err)
	}
	defer a.drain()
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
