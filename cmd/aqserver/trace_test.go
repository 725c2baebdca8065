package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs/tracez"
	"repro/internal/stream"
	"repro/internal/window"
)

// tracedRunner builds a non-grouped runner with the flight recorder
// attached before any item is fed, then runs a workload through it.
func tracedRunner(t *testing.T, name string) (*queryRunner, *tracez.Tracer, *tracez.Watchdog) {
	t.Helper()
	tr := tracez.New(tracez.NewRecorder(1<<12), name)
	wd := tracez.NewWatchdog(0.02, nil)
	tr.SetWatchdog(wd)
	q := adaptiveRunner(t, runnerDef{name: name, theta: 0.02, tracer: tr, watchdog: wd,
		spec: window.Spec{Size: 10 * stream.Second, Slide: stream.Second}, agg: window.Sum()})
	feedTuples(q, gen.Sensor(20000, 9).Arrivals())
	q.finish()
	return q, tr, wd
}

// chromeTrace is the subset of the Chrome trace-event JSON shape the
// tests assert on.
type chromeTrace struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
	} `json:"traceEvents"`
	OtherData map[string]json.RawMessage `json:"otherData"`
}

func TestTraceEndpoint(t *testing.T) {
	q, _, _ := tracedRunner(t, "traced-sum")
	srv := newServer()
	srv.add(q)
	srv.add(testRunner(t)) // untraced sibling: must 404 on /debug/aq/trace
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/debug/aq/trace?query=traced-sum&last=200")
	if code != 200 {
		t.Fatalf("trace endpoint: %d %s", code, body)
	}
	var ct chromeTrace
	if err := json.Unmarshal([]byte(body), &ct); err != nil {
		t.Fatalf("trace body is not Chrome trace JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var pipeline int
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "M" { // skip process/thread-name metadata records
			pipeline++
		}
	}
	if pipeline == 0 {
		t.Fatal("trace has only metadata records, no pipeline events")
	}
	if _, ok := ct.OtherData["provenance"]; !ok {
		t.Fatalf("trace otherData lacks provenance: %v", ct.OtherData)
	}

	if code, body := get("/debug/aq/trace"); code != 400 || !strings.Contains(body, "traced-sum") {
		t.Fatalf("missing ?query=: %d %q (want 400 listing names)", code, body)
	}
	if code, _ := get("/debug/aq/trace?query=bogus"); code != 404 {
		t.Fatalf("unknown query: %d (want 404)", code)
	}
	if code, body := get("/debug/aq/trace?query=test-sum"); code != 404 ||
		!strings.Contains(body, "tracing not enabled") {
		t.Fatalf("untraced query: %d %q (want 404 tracing not enabled)", code, body)
	}
}

// TestReadinessQualityViolations drives a quality sample above θ through
// the tracer and asserts the violation surfaces everywhere it should:
// the watchdog, the /readyz payload (degraded, not unready), and an
// automatic flight-recorder dump naming the violating window.
func TestReadinessQualityViolations(t *testing.T) {
	q, tr, wd := tracedRunner(t, "violated-sum")
	var dumps []tracez.Dump
	tr.OnDump(func(d tracez.Dump) { dumps = append(dumps, d) })
	srv := newServer()
	srv.add(q)

	if got := srv.readiness(); len(got.QualityViolations) != 0 {
		t.Fatalf("violations before injection: %v", got.QualityViolations)
	}

	// Inject a finalized-window sample far above θ=0.02.
	tr.QualitySample(12_000, 3, 0.5)

	if !wd.InViolation() {
		t.Fatal("watchdog not in violation after injected sample")
	}
	rd := srv.readiness()
	if len(rd.QualityViolations) != 1 || rd.QualityViolations[0] != "violated-sum" {
		t.Fatalf("readiness.QualityViolations = %v", rd.QualityViolations)
	}
	if !rd.Ready {
		t.Fatal("quality violation must degrade, not fail, readiness")
	}

	if len(dumps) == 0 {
		t.Fatal("violation start did not dump the flight recorder")
	}
	d := dumps[len(dumps)-1]
	if d.Reason != "quality-violation" || d.Win != 3 {
		t.Fatalf("dump = reason %q win %d, want quality-violation win 3", d.Reason, d.Win)
	}

	// Recovery clears the readiness verdict.
	tr.QualitySample(13_000, 4, 0.001)
	if wd.InViolation() {
		t.Fatal("watchdog still in violation after below-θ sample")
	}
	if got := srv.readiness(); len(got.QualityViolations) != 0 {
		t.Fatalf("violations after recovery: %v", got.QualityViolations)
	}
}

// TestDumpSinkWritesChromeTrace checks that installDumpSink lands every
// dump as a self-contained, parseable Chrome trace file.
func TestDumpSinkWritesChromeTrace(t *testing.T) {
	dir := t.TempDir()
	_, tr, _ := tracedRunner(t, "dumped-sum")
	installDumpSink(tr, dir, slog.New(slog.NewTextHandler(io.Discard, nil)))

	tr.Dump("on-demand", 42, -1)

	paths, err := filepath.Glob(filepath.Join(dir, "dumped-sum-on-demand-*.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("dump files = %v (err %v), want exactly one", paths, err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("dump file is not Chrome trace JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("dump file has no events")
	}
	if _, ok := ct.OtherData["reason"]; !ok {
		t.Fatalf("dump otherData lacks reason: %v", ct.OtherData)
	}
}
