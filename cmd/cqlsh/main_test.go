package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs/tracez"
)

func TestExecuteStatement(t *testing.T) {
	var out strings.Builder
	err := execute(&out, "SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s QUALITY 2%", 20000, 3, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"executing:", "results", "quality", "latency", "handler", "adaptive handler"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestExecuteGrouped(t *testing.T) {
	var out strings.Builder
	err := execute(&out, "SELECT count FROM cdr GROUP BY key WINDOW 10s SLIDE 10s QUALITY 5%", 10000, 3, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "keyed windows") {
		t.Fatalf("grouped output:\n%s", out.String())
	}
}

func TestExecuteParseError(t *testing.T) {
	var out strings.Builder
	if err := execute(&out, "SELEKT nonsense", 100, 1, 0, nil); err == nil {
		t.Fatal("bad statement accepted")
	}
}

func TestExecuteExplicitHandler(t *testing.T) {
	var out strings.Builder
	err := execute(&out, "SELECT avg FROM sensor WINDOW 10s SLIDE 1s HANDLER kslack(2s)", 10000, 4, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "adaptive handler") {
		t.Fatal("explicit handler reported as adaptive")
	}
}

// TestExecuteTraceRate: a trace('file.csv') source replays the file whatever
// the tuple count asked for, so the wall line's rate is the file's tuples
// over the wall time, not the count asked for.
func TestExecuteTraceRate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.WriteTrace(f, gen.Sensor(50, 1).Arrivals()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	stmt := fmt.Sprintf("SELECT sum(value) FROM trace('%s') WINDOW 1s SLIDE 1s HANDLER kslack(1s)", path)
	if err := execute(&out, stmt, 1e12, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	var rate float64
	_, line, _ := strings.Cut(out.String(), "wall    : ")
	if _, rest, ok := strings.Cut(line, "("); !ok {
		t.Fatalf("no rate in the wall line:\n%s", out.String())
	} else if _, err := fmt.Sscanf(rest, "%f tuples/s", &rate); err != nil {
		t.Fatalf("wall line %q: %v", line, err)
	}
	if rate <= 0 || rate >= 1e9 {
		t.Fatalf("50 tuples replayed at %.0f tuples/s: the rate counts the tuples asked for, not the trace's", rate)
	}
}

// TestExecuteTraced runs a statement with the event tracer attached and
// checks the -trace export is a loadable Chrome trace with events from
// the run.
func TestExecuteTraced(t *testing.T) {
	tr := tracez.New(tracez.NewRecorder(1<<12), "cqlsh")
	var out strings.Builder
	err := execute(&out, "SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s QUALITY 2%", 20000, 3, 10, tr)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Recorder().Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("trace file is not Chrome trace JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
}
