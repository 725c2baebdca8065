// Command benchgen generates, inspects and replays out-of-order stream
// traces in the CSV format of internal/gen, so experiments can be pinned
// to a concrete artifact and examined with standard tools.
//
// Examples:
//
//	benchgen -workload sensor -n 100000 -seed 7 -out trace.csv
//	benchgen -inspect trace.csv
//	benchgen -workload cdr -n 50000 -net   # delays from the network simulator
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stream"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "sensor", "workload: sensor|bursty|drift|stock|cdr")
		n        = flag.Int("n", 100000, "tuples")
		seed     = flag.Uint64("seed", 1, "seed")
		out      = flag.String("out", "", "write CSV trace to this file (default stdout)")
		inspect  = flag.String("inspect", "", "inspect an existing trace instead of generating")
		useNet   = flag.Bool("net", false, "route delays through the discrete-event network simulator")
	)
	flag.Parse()

	if *inspect != "" {
		return inspectTrace(*inspect)
	}

	c, ok := gen.Workload(*workload, *n, *seed)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}

	var tuples []stream.Tuple
	if *useNet {
		c.Delays = delay.Zero{}
		tuples = sim.Transport(c.Events(), *seed)
	} else {
		tuples = c.Arrivals()
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := gen.WriteTrace(w, tuples); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d tuples to %s (%v)\n",
			len(tuples), *out, stream.MeasureDisorder(tuples))
	}
	return nil
}

func inspectTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tuples, err := gen.ReadTrace(f)
	if err != nil {
		return err
	}
	d := stream.MeasureDisorder(tuples)
	fmt.Printf("tuples     : %d\n", len(tuples))
	if len(tuples) == 0 {
		return nil
	}
	fmt.Printf("event span : [%d, %d]\n", tuples[0].TS, maxTS(tuples))
	fmt.Printf("disorder   : %v\n", d)
	fmt.Printf("inversions : %d\n", stream.Inversions(tuples))

	lat := make([]float64, len(tuples))
	var clock stream.Time
	for i, t := range tuples {
		if i == 0 || t.TS > clock {
			clock = t.TS
		}
		lat[i] = float64(clock - t.TS)
	}
	slices.Sort(lat)
	fmt.Printf("lateness   : p50=%.0f p90=%.0f p99=%.0f p99.9=%.0f\n",
		stats.PercentileSorted(lat, 0.5), stats.PercentileSorted(lat, 0.9),
		stats.PercentileSorted(lat, 0.99), stats.PercentileSorted(lat, 0.999))
	return nil
}

func maxTS(ts []stream.Tuple) stream.Time {
	var m stream.Time
	for _, t := range ts {
		if t.TS > m {
			m = t.TS
		}
	}
	return m
}
