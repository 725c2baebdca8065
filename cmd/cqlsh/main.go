// Command cqlsh is the interactive front end of the system — the shape a
// SIGMOD demonstration would drive: type a continuous query with a
// quality clause, get the executed results' quality/latency report back.
//
//	$ go run ./cmd/cqlsh
//	cql> SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s QUALITY 1%
//	...
//	cql> SELECT count(value) FROM cdr GROUP BY key WINDOW 30s SLIDE 5s HANDLER kslack(2s)
//
// One-shot mode:
//
//	$ go run ./cmd/cqlsh -e "SELECT avg FROM bursty WINDOW 10s SLIDE 1s QUALITY 0.5%" -n 200000
//
// With -trace out.json the shell records every executed statement's
// pipeline events (buffer inserts/releases, K adaptations, emissions)
// into one flight recorder and writes it as Chrome trace-event JSON on
// exit — load it in Perfetto or chrome://tracing. This is event tracing,
// not the trace('file.csv') CQL source (which replays recorded input).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/metrics"
	"repro/internal/obs/tracez"
)

func main() {
	stmt := flag.String("e", "", "execute one statement and exit")
	n := flag.Int("n", 100000, "tuples to generate per query")
	seed := flag.Uint64("seed", 1, "workload seed")
	warmup := flag.Int("warmup", 20, "windows to skip in the metrics")
	traceOut := flag.String("trace", "", "write executed statements' event trace to this file (Chrome trace JSON)")
	top := flag.String("top", "", "live fleet console over a running aqserver, e.g. -top http://localhost:8080 (needs aqserver -obs)")
	topInterval := flag.Duration("top-interval", time.Second, "console refresh interval (with -top)")
	topFrames := flag.Int("top-frames", 0, "console frames to draw before exiting; 0 = until interrupted (with -top)")
	flag.Parse()

	if *top != "" {
		if err := runTop(os.Stdout, *top, *topInterval, *topFrames); err != nil {
			fmt.Fprintln(os.Stderr, "cqlsh:", err)
			os.Exit(1)
		}
		return
	}

	var tr *tracez.Tracer
	if *traceOut != "" {
		tr = tracez.New(tracez.NewRecorder(tracez.DefaultRecorderSize), "cqlsh")
	}

	if *stmt != "" {
		err := execute(os.Stdout, *stmt, *n, *seed, *warmup, tr)
		if werr := writeTrace(*traceOut, tr); werr != nil && err == nil {
			err = werr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cqlsh:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("aq-stream cql shell — terminate statements with Enter; 'help' or 'quit'.")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("cql> ")
		if !sc.Scan() {
			fmt.Println()
			flushTrace(*traceOut, tr)
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.EqualFold(line, "quit"), strings.EqualFold(line, "exit"):
			flushTrace(*traceOut, tr)
			return
		case strings.EqualFold(line, "help"):
			printHelp()
			continue
		}
		if err := execute(os.Stdout, line, *n, *seed, *warmup, tr); err != nil {
			fmt.Println("error:", err)
		}
	}
}

// writeTrace exports the recorder as Chrome trace-event JSON; a no-op
// without -trace.
func writeTrace(path string, tr *tracez.Tracer) error {
	if tr == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events := tr.Recorder().Events()
	extra := map[string]any{"events": len(events), "provenance": tr.Provenances()}
	return tracez.WriteChromeTrace(f, "cqlsh", events, extra)
}

// flushTrace is writeTrace for the interactive exit paths, where the
// error can only be reported, not returned.
func flushTrace(path string, tr *tracez.Tracer) {
	if err := writeTrace(path, tr); err != nil {
		fmt.Fprintln(os.Stderr, "cqlsh: writing trace:", err)
	} else if tr != nil {
		fmt.Fprintln(os.Stderr, "event trace written to", path)
	}
}

func printHelp() {
	fmt.Print(`statements:
  SELECT <agg>(value) FROM <source> [GROUP BY key]
      WINDOW <dur> SLIDE <dur>
      { QUALITY <pct> | HANDLER none|maxslack|punctuated|kslack(<dur>)|wm(<pct>) }

aggregates: count sum avg min max median stddev distinct p01..p99
sources   : sensor bursty drift stock cdr simnet trace('file.csv')
durations : 500ms 10s 1m      percentages: 1% 0.5% 95%

examples:
  SELECT sum(value) FROM sensor WINDOW 10s SLIDE 1s QUALITY 1%
  SELECT p95(value) FROM cdr GROUP BY key WINDOW 30s SLIDE 5s QUALITY 5%
  SELECT max(value) FROM bursty WINDOW 10s SLIDE 1s HANDLER kslack(2s)
`)
}

func execute(w io.Writer, stmt string, n int, seed uint64, warmup int, tr *tracez.Tracer) error {
	q, err := cql.Parse(stmt)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "executing:", q.String())
	start := time.Now()
	rep, err := q.RunTraced(n, seed, tr)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	theta := q.Quality
	opts := metrics.CompareOpts{Theta: theta, SkipWarmup: warmup, SkipEmptyOracle: true}
	if q.GroupBy {
		quality := rep.KeyedQuality(q.Spec, q.Agg, metrics.CompareOpts{
			Theta: theta, SkipWarmup: warmup / 4, SkipEmptyOracle: true,
		})
		fmt.Fprintf(w, "  results : %d keyed windows\n", len(rep.Keyed))
		fmt.Fprintf(w, "  quality : %v\n", quality)
	} else {
		quality := rep.Quality(q.Spec, q.Agg, opts)
		fmt.Fprintf(w, "  results : %d windows\n", len(rep.Results))
		fmt.Fprintf(w, "  quality : %v\n", quality)
		// Show the last few concrete results for demo flavour.
		tail := rep.Results
		if len(tail) > 3 {
			tail = tail[len(tail)-3:]
		}
		for _, r := range tail {
			fmt.Fprintf(w, "     %v\n", r)
		}
	}
	fmt.Fprintf(w, "  latency : %v\n", rep.Latency(warmup))
	fmt.Fprintf(w, "  input   : %v\n", rep.Disorder)
	fmt.Fprintf(w, "  handler : %v\n", rep.Handler)
	if theta > 0 {
		// Reconstruct the handler view for the adaptive case.
		if h, err := q.BuildHandler(); err == nil {
			if _, ok := h.(*core.AQKSlack); ok {
				fmt.Fprintf(w, "  note    : adaptive handler; declared bound %s on mean relative error\n",
					fmt.Sprintf("%g%%", theta*100))
			}
		}
	}
	fmt.Fprintf(w, "  wall    : %v (%.0f tuples/s)\n", wall.Round(time.Millisecond),
		float64(len(rep.Input))/wall.Seconds())
	return nil
}
