package exp

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/gen"
	"repro/internal/stream"
	"repro/internal/window"
)

func TestScale(t *testing.T) {
	if got := Scale(0.5).N(100000); got != 50000 {
		t.Fatalf("Scale(0.5).N = %d", got)
	}
	if got := Scale(0).N(100000); got != 100000 {
		t.Fatalf("zero scale should mean full: %d", got)
	}
	if got := Scale(0.001).N(100000); got != 1000 {
		t.Fatalf("floor not applied: %d", got)
	}
	if got := Scale(2).N(100000); got != 100000 {
		t.Fatalf("out-of-range scale: %d", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{ID: "RX", Title: "demo", Cols: []string{"a", "bb"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer", "22")
	tb.Notes = append(tb.Notes, "a note")
	s := tb.String()
	for _, want := range []string{"RX", "demo", "longer", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := Ms(1500); got != "1500ms" {
		t.Fatalf("Ms(1500) = %q", got)
	}
	if got := Ms(25000); got != "25.00s" {
		t.Fatalf("Ms(25000) = %q", got)
	}
	if got := Pct(0.0123); got != "1.230%" {
		t.Fatalf("Pct = %q", got)
	}
	if got := I(42); got != "42" {
		t.Fatalf("I = %q", got)
	}
	if got := F(1.23456, 2); got != "1.23" {
		t.Fatalf("F = %q", got)
	}
}

func TestRunAggProducesOutcome(t *testing.T) {
	tuples := gen.Sensor(20000, 99).Arrivals()
	agg := window.Sum()
	oracle := window.Oracle(stdSpec, agg, tuples)
	o := RunAgg("kslack", tuples, oracle, stdSpec, agg, buffer.NewKSlack(2*stream.Second), 0.01)
	if o.Quality.Windows == 0 {
		t.Fatal("no windows compared")
	}
	if o.Latency.Results == 0 {
		t.Fatal("no latency results")
	}
	if o.Throughput <= 0 {
		t.Fatal("throughput not measured")
	}
	if o.Disorder.OutOfOrder == 0 {
		t.Fatal("disorder not measured")
	}
}

func TestSteadyK(t *testing.T) {
	if got := SteadyK(nil); got != 0 {
		t.Fatalf("SteadyK(nil) = %v", got)
	}
}

func TestBaselinesConstructible(t *testing.T) {
	for name, mk := range Baselines(stdSlacks) {
		h := mk()
		if h == nil {
			t.Fatalf("%s: nil handler", name)
		}
		// Each call must return a fresh handler, not shared state.
		if mk() == h {
			t.Fatalf("%s: handler not fresh", name)
		}
	}
}

// TestAllExperimentsRunTiny smoke-tests every experiment at minimal scale:
// tables render, every row has the advertised column count.
func TestAllExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(Scale(0.001)) // floors at 1000 tuples
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: empty table", tb.ID)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Cols) {
						t.Fatalf("%s: row %v has %d cells, want %d", tb.ID, row, len(row), len(tb.Cols))
					}
				}
				if tb.String() == "" {
					t.Fatalf("%s: empty rendering", tb.ID)
				}
			}
		})
	}
}

func TestTableFormats(t *testing.T) {
	tb := Table{ID: "RX", Title: "demo", Cols: []string{"a", "b"}, Notes: []string{"n1"}}
	tb.AddRow("x", "1")
	var md strings.Builder
	if err := tb.Write(&md, "md"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"### RX", "| a | b |", "| x | 1 |", "- n1"} {
		if !strings.Contains(md.String(), want) {
			t.Fatalf("markdown missing %q:\n%s", want, md.String())
		}
	}
	var csvOut strings.Builder
	if err := tb.Write(&csvOut, "csv"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# RX: demo", "a,b", "x,1"} {
		if !strings.Contains(csvOut.String(), want) {
			t.Fatalf("csv missing %q:\n%s", want, csvOut.String())
		}
	}
	var txt strings.Builder
	if err := tb.Write(&txt, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "== RX") {
		t.Fatalf("text format: %s", txt.String())
	}
	if err := tb.Write(&txt, "bogus"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestR6Pinned: the join experiment's tables — the two-way join's recall,
// precision, pair latency and steady slack per handler, and the three-way
// join's — read as they did when RunJoin drove the handler and the join
// operator through a loop of its own, at a scale where the adaptive join
// handler adapts. Re-recorded when the lateness sketch became the exact
// histogram, which moves the adaptive join's slacks, and when the wm-p95
// baseline read its slack from it too, which moves that row alone (steady
// slack 698 → 663 ms, pair latency 1582 → 1373 ms, recall unchanged).
func TestR6Pinned(t *testing.T) {
	d := sha256.New()
	for _, tb := range R6(Scale(0.05)) {
		d.Write([]byte(tb.String()))
	}
	if got, want := fmt.Sprintf("%x", d.Sum(nil)), "0dc8621392dde2fd6428d131f2f94abbf007a544926bc10e92bb19b879dda9fa"; got != want {
		t.Errorf("R6 tables digest %s, want %s", got, want)
	}
}
