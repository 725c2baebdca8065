// Dashboard: several continuous queries running concurrently as goroutine
// pipelines, each with its own quality bound, streaming results while a
// supervisor prints a periodic compliance summary.
//
// This is the deployment shape of the engine: cq.RunConcurrent pumps the
// source into a fan-out ring — the one ingest queue — on one goroutine and
// steps disorder handler → window operator straight off it on another;
// results reach the sink as they are emitted.
//
// Each pipeline is also instrumented (cq.Telemetry + core.Telemetry into
// one obs.Registry), and the final Prometheus-format scrape is printed —
// the same text cmd/aqserver serves at /metrics with -obs. See
// docs/OBSERVABILITY.md for the metric catalog.
//
//	go run ./examples/dashboard
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/window"
)

type panel struct {
	name  string
	theta float64
	spec  window.Spec
	agg   window.Factory
	load  gen.Config

	results atomic.Int64
	report  *cq.AggReport
}

func main() {
	panels := []*panel{
		{
			name: "temp-avg-10s", theta: 0.005,
			spec: window.Spec{Size: 10 * stream.Second, Slide: stream.Second},
			agg:  window.Avg(), load: gen.Sensor(150000, 1),
		},
		{
			name: "volume-sum-30s", theta: 0.02,
			spec: window.Spec{Size: 30 * stream.Second, Slide: 5 * stream.Second},
			agg:  window.Sum(), load: gen.SensorBursty(150000, 2),
		},
		{
			name: "peak-max-5s", theta: 0.01,
			spec: window.Spec{Size: 5 * stream.Second, Slide: stream.Second},
			agg:  window.Max(), load: gen.CDR(150000, 3),
		},
	}

	ctx := context.Background()
	reg := obs.NewRegistry()

	// Windowed metric history over the same registry: the background
	// sampler snapshots every series while the pipelines run — the same
	// machinery aqserver serves at /api/stats with -obs. A fast step
	// (real deployments use ~1s) gives the short demo run some depth.
	hist := obs.NewHistory(reg, obs.HistoryOptions{Step: 20 * time.Millisecond, Retention: time.Minute})
	hist.Start()

	var wg sync.WaitGroup
	for _, p := range panels {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			handler := core.NewAQKSlack(core.Config{Theta: p.theta, Spec: p.spec, Agg: p.agg})
			handler.Instrument(core.NewTelemetry(reg, p.name))
			rep, err := cq.New(p.load.Source()).
				Handle(handler).
				Window(p.spec, p.agg).
				KeepInput().
				Instrument(cq.NewTelemetry(reg, p.name, p.spec)).
				RunConcurrent(ctx, func(window.Result) { p.results.Add(1) })
			if err != nil {
				log.Fatalf("%s: %v", p.name, err)
			}
			p.report = rep
		}()
	}
	wg.Wait()

	fmt.Println("panel            theta   windows  meanErr    compliance  meanLat")
	fmt.Println("-------------------------------------------------------------------")
	for _, p := range panels {
		q := p.report.Quality(p.spec, p.agg, metrics.CompareOpts{
			Theta: p.theta, SkipWarmup: 20, SkipEmptyOracle: true,
		})
		l := p.report.Latency(20)
		fmt.Printf("%-15s  %5.2f%%  %7d  %8.4f%%  %9.1f%%  %6.0fms\n",
			p.name, 100*p.theta, p.results.Load(), 100*q.MeanRelErr, 100*q.Compliance, l.Mean)
	}
	fmt.Println("\nall three queries ran as concurrent ring-fed pipelines with independent")
	fmt.Println("quality bounds; each handler adapted its own slack.")

	hist.Stop()
	fmt.Println("\n--- windowed history (obs.History; aqserver serves this at /api/stats) ---")
	fmt.Println("series: aq_buffer_k_ms — the slack each controller paid over the run")
	for _, s := range hist.Query(obs.HistoryQuery{Names: []string{"aq_buffer_k_ms"}}) {
		if len(s.Points) == 0 {
			continue
		}
		lo, hi := s.Points[0].V, s.Points[0].V
		for _, p := range s.Points[1:] {
			if p.V < lo {
				lo = p.V
			}
			if p.V > hi {
				hi = p.V
			}
		}
		fmt.Printf("  %-15s %3d samples  first=%-6.0f last=%-6.0f min=%-6.0f max=%.0f\n",
			s.Labels["query"], len(s.Points), s.Points[0].V, s.Points[len(s.Points)-1].V, lo, hi)
	}

	fmt.Println("\n--- final /metrics scrape (Prometheus text format) ---")
	if err := reg.WritePrometheus(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
