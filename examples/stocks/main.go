// Stocks: a quality-driven sliding-window band join of two tick streams.
//
// Two exchanges publish trades for the same instruments (64 symbols).
// An arbitrage monitor wants every pair of trades in the same symbol
// within 500ms of each other — with at least 99% recall, at the lowest
// latency that achieves it. AQ-Join adapts the disorder-handling buffer to
// that target; the example compares it against no buffering and against a
// conservatively large fixed slack.
//
//	go run ./examples/stocks
package main

import (
	"fmt"
	"log"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/stream"
)

func exchange(src uint8, seed uint64) []stream.Tuple {
	c := gen.Config{
		N: 50000, Interval: 10, Poisson: true, NumKeys: 64,
		Values: &gen.RandomWalk{Start: 100, Step: 0.25, Lo: 50, Hi: 150},
		Delays: delay.ParetoWithMean(400, 1.8),
		Seed:   seed,
	}
	tuples := c.Events()
	for i := range tuples {
		tuples[i].Src = src
	}
	stream.SortByArrival(tuples)
	return tuples
}

func run(name string, h buffer.Handler) {
	left := exchange(0, 11)
	right := exchange(1, 22)
	jcfg := join.Config{Band: 500, KeyMatch: true, RetainFor: 60 * stream.Second}

	rep, err := cq.NewJoin(stream.FromTuples(left), stream.FromTuples(right), jcfg).
		Handle(h).
		KeepInput().
		Run()
	if err != nil {
		log.Fatal(err)
	}
	q := rep.Quality(jcfg)
	var meanLat float64
	for _, r := range rep.Results {
		meanLat += float64(r.Latency())
	}
	if len(rep.Results) > 0 {
		meanLat /= float64(len(rep.Results))
	}
	fmt.Printf("%-12s pairs=%-7d recall=%7.3f%%  precision=%7.3f%%  meanPairLat=%6.0fms\n",
		name, q.Emitted, 100*q.Recall, 100*q.Precision, meanLat)
}

func main() {
	fmt.Println("band join: same-symbol trades within 500ms, two exchanges, 2x50k ticks")
	fmt.Println()
	run("none", buffer.Zero())
	run("kslack-20s", buffer.NewKSlack(20*stream.Second))
	run("aq(99%)", core.NewAQJoin(core.JoinConfig{Recall: 0.99, Band: 500}))
	fmt.Println("\naq meets the recall target at a fraction of the fixed slack's latency;")
	fmt.Println("no buffering is fastest but silently loses pairs.")
}
