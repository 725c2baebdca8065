// Command experiments runs the reconstructed evaluation suite R1–R9 and its
// extensions R11, R14 and R16 (see DESIGN.md §4) and prints each
// experiment's tables. R9 is the adaptive handler's latency regret against
// the best fixed K in hindsight (-only R9 prints it in seconds).
//
// Usage:
//
//	experiments [-scale f] [-only R3] [-list]
//
// -scale shrinks workloads for quick runs (e.g. -scale 0.1); the default 1
// reproduces the full-size tables recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	scale := flag.Float64("scale", 1, "workload scale factor in (0,1]")
	only := flag.String("only", "", "run only the experiment whose ID contains this string (e.g. R3)")
	list := flag.Bool("list", false, "list experiments and exit")
	format := flag.String("format", "text", "table format: text|md|csv")
	flag.Parse()

	suite := exp.All()
	if *list {
		for _, e := range suite {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return
	}

	ran := 0
	for _, e := range suite {
		if *only != "" && !strings.Contains(e.ID, *only) {
			continue
		}
		ran++
		start := time.Now()
		fmt.Printf("## running %s: %s (scale=%g)\n\n", e.ID, e.Title, *scale)
		for _, tb := range e.Run(exp.Scale(*scale)) {
			if err := tb.Write(os.Stdout, *format); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("(%s took %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment matches -only=%q\n", *only)
		os.Exit(1)
	}
}
