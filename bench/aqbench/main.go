// Command aqbench is the repository's benchmark: it builds cmd/aqserver,
// runs it as a separate process, registers a workload's queries over the
// HTTP API, streams a seeded, pre-encoded netstream byte stream over TCP
// on an open-loop schedule, checks the server's output against an
// in-process cq.Run of the same plan, and prints every metric by name.
//
//	go run -C bench ./aqbench -seed 1                 all four workloads
//	go run -C bench ./aqbench -workload fixedk_wire   one workload
//	go run -C bench ./aqbench -seed 1 -trace 1        per-layer metrics + bench/out/trace-<workload>.json
//	go run -C bench ./aqbench -selfcheck              two untraced sets must agree within bounds
//
// bench/README.md has the metric and workload tables; BENCHMARK.json at
// the checkout root is the contract a driver runs it under.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric's fixed unit; the names and bounds are also in
// BENCHMARK.json, which -selfcheck reads back.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tuples_per_cpu_s", "tuples/cpu-s"},
	{"delivered_pct", "%"},
	{"result_latency_ms_p50", "ms"},
	{"result_latency_ms_p95", "ms"},
	{"quality_err_mean_pct", "%"},
	{"quality_ok_pct", "%"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"netstream.encode_ns_per_tuple", "ns"},
	{"netstream.decode_ns_per_tuple", "ns"},
	{"netstream.decode_allocs_per_tuple", "count"},
	{"netstream.bytes_per_tuple", "B"},
	{"fleet.publish_ns_per_tuple", "ns"},
	{"fleet.rate_shed_pct", "%"},
	{"fanout.publish_ns_per_tuple", "ns"},
	{"fanout.next_ns_per_tuple", "ns"},
	{"fanout.shed_pct", "%"},
	{"fanout.lag_batches_max", "count"},
	{"buffer.insert_ns_per_tuple", "ns"},
	{"buffer.insert_allocs_per_tuple", "count"},
	{"buffer.depth_max", "count"},
	{"buffer.stragglers_pct", "%"},
	{"core.insert_ns_per_tuple", "ns"},
	{"core.mink_ns_per_call", "ns"},
	{"core.estimate_err_ns_per_call", "ns"},
	{"core.adaptations", "count"},
	{"core.k_ms_mean", "ms"},
	{"window.observe_ns_per_tuple", "ns"},
	{"window.observe_allocs_per_tuple", "count"},
	{"window.emit_ns_per_window", "ns"},
	{"window.results_out", "count"},
	{"fiba.insert_ns_per_tuple", "ns"},
	{"fiba.evict_ns_per_tuple", "ns"},
	{"fiba.range_ns_per_call", "ns"},
	{"fiba.allocs_per_evict", "count"},
	{"durable.append_ns_per_tuple", "ns"},
	{"durable.bytes_per_tuple", "B"},
	{"durable.snapshot_ms", "ms"},
	{"durable.recovery_ms", "ms"},
	{"cq.run_ns_per_tuple", "ns"},
	{"cq.run_concurrent_ns_per_tuple", "ns"},
	{"cq.run_shared_ns_per_tuple", "ns"},
	{"aqserver.wire_latency_ms_mean", "ms"},
	{"aqserver.wire_latency_ms_p99", "ms"},
	{"aqserver.flood_goodput_tuples_per_s", "1/s"},
	{"aqserver.flood_shed_pct", "%"},
	{"aqserver.queue_depth_max", "count"},
	{"aqserver.alloc_bytes_per_tuple", "B"},
	{"aqserver.gc_cycles", "count"},
	{"aqserver.api_read_ms_p50", "ms"},
	{"aqserver.api_read_ms_p99", "ms"},
	{"aqserver.drain_ms", "ms"},
	{"aqserver.idle_cpu_pct", "%"},
	{"aqserver.tracing_overhead_pct", "%"},
	{"gen.lag_ms_p99", "ms"},
	{"gen.lag_ms_max", "ms"},
}

// Run shape shared by every invocation; only -seconds comes from outside.
const (
	warmSeconds = 1.0
	rounds      = 5  // fresh servers an untraced run's measured phase is split over
	setupExtra  = 16 // further set-up samples per untraced run: 21 in all
	idleWindow  = 500 * time.Millisecond
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the one JSON object a run prints last on standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// toReport selects the metric set of the run's mode and refuses to print
// a metric that is missing or not finite.
func toReport(res *result, trace bool) (report, error) {
	defs, vals := endToEnd, res.e2e
	if trace {
		defs, vals = perLayer, res.layer
	}
	rep := report{Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return rep, fmt.Errorf("workload %s: metric %s missing or not finite (%v)", res.workload, d.name, v)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return rep, nil
}

// hostStamp records what the numbers were measured on.
func hostStamp(root string) map[string]any {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := "unknown"
	if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "server_gomaxprocs": serverGOMAXPROCS,
		"go": runtime.Version(), "kernel": kernel, "commit": commit,
	}
}

// summarize prints one workload's human-readable account on stderr.
func summarize(res *result) {
	fmt.Fprintf(os.Stderr, "%s: identity check %s, %d operations attempted, %d failed; latency percentiles over %d results, quality over %d windows\n",
		res.workload, map[bool]string{true: "passed", false: "FAILED"}[res.correct],
		res.attempted, res.failed, res.latencySamples, res.windows)
	for _, m := range res.mismatch {
		fmt.Fprintf(os.Stderr, "  mismatch: %s\n", m)
	}
	show := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			if v, ok := vals[d.name]; ok {
				fmt.Fprintf(os.Stderr, "  %-38s %14.4f %s\n", d.name, v, d.unit)
			}
		}
	}
	show(endToEnd, res.e2e)
	show(perLayer, res.layer)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aqbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run; empty runs all: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same input bytes")
	seconds := flag.Float64("seconds", 10, "length of the measured paced phase")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced set twice and require agreement within BENCHMARK.json's bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	set := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
		set = []workload{w}
	}

	// SIGINT/SIGTERM cancel the run; every deferred teardown still runs, so
	// no server process or scratch directory outlives the harness.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	ev, cleanup, err := prepare(ctx)
	if err != nil {
		return err
	}
	defer cleanup()
	opt := options{seed: *seed, seconds: *seconds, warm: warmSeconds, trace: *trace == 1,
		scale: 1, rounds: rounds, setupExtra: setupExtra, idleWindow: idleWindow}
	if opt.trace {
		// One server for the whole measured phase: per-layer numbers carry
		// no bound, and the scrape wants a long second half.
		opt.rounds, opt.setupExtra = 1, 0
	}
	stamp := hostStamp(ev.root)
	fmt.Fprintf(os.Stderr, "host: %v\n", stamp)

	if *selfcheck {
		return runSelfcheck(ctx, ev, set, opt, stamp)
	}
	for _, w := range set {
		res, err := runWorkload(ctx, ev, w, opt)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		summarize(res)
		rep, err := toReport(res, opt.trace)
		if err != nil {
			return err
		}
		var line any = rep
		if *name == "" {
			// Several workloads in one invocation: say which is which.
			line = struct {
				Workload string `json:"workload"`
				report
			}{w.name, rep}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// prepare locates the checkout, builds the server and makes the run's
// scratch directory. Everything the harness writes lives under
// .bench_build (scratch, removed by cleanup) or bench/out (traces).
func prepare(ctx context.Context) (env, func(), error) {
	root, err := repoRoot()
	if err != nil {
		return env{}, nil, err
	}
	cpus, err := splitCPUs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqbench: server and harness share their CPUs, tuples_per_cpu_s will be noisy:", err)
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return env{}, nil, err
	}
	bin, err := buildServer(ctx, root)
	if err != nil {
		return env{}, nil, err
	}
	runDir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return env{}, nil, err
	}
	return env{root: root, bin: bin, runDir: runDir, cpus: cpus}, func() { os.RemoveAll(runDir) }, nil
}

// limit is one end-to-end metric's direction and bound.
type limit struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// bounds reads each end-to-end metric's direction and bound back from
// BENCHMARK.json, so -selfcheck judges by the contract's own numbers.
func bounds(root string) (map[string]limit, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []limit `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := make(map[string]limit, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		out[m.Name] = m
	}
	return out, nil
}

// runSelfcheck runs the untraced set twice back to back. The second set
// may not be worse than the first by more than a metric's bound in either
// order (so neither may the first than the second), nothing may be shed,
// and the stream-time metrics must repeat exactly. Its record goes to
// bench/out/selfcheck-seed.json.
func runSelfcheck(ctx context.Context, ev env, set []workload, opt options, stamp map[string]any) error {
	limits, err := bounds(ev.root)
	if err != nil {
		return err
	}
	opt.trace = false
	exact := map[string]bool{"result_latency_ms_p50": true, "result_latency_ms_p95": true,
		"quality_err_mean_pct": true, "quality_ok_pct": true}
	var sets [2]map[string]map[string]float64
	problems := []string{} // not nil: the record says [], not null
	for i := range sets {
		sets[i] = map[string]map[string]float64{}
		for _, w := range set {
			res, err := runWorkload(ctx, ev, w, opt)
			if err != nil {
				return fmt.Errorf("set %d, workload %s: %w", i+1, w.name, err)
			}
			summarize(res)
			if _, err := toReport(res, false); err != nil {
				return err
			}
			if !res.correct || res.failed != 0 {
				problems = append(problems, fmt.Sprintf("set %d %s: identity check failed or %d operations failed", i+1, w.name, res.failed))
			}
			if res.e2e["delivered_pct"] != 100 {
				problems = append(problems, fmt.Sprintf("set %d %s: delivered_pct %.4f, want 100 at the frozen rate", i+1, w.name, res.e2e["delivered_pct"]))
			}
			sets[i][w.name] = res.e2e
		}
	}
	for _, w := range set {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, d := range endToEnd {
			lim, ok := limits[d.name]
			if !ok {
				return fmt.Errorf("BENCHMARK.json has no end_to_end metric %s", d.name)
			}
			lo, hi := math.Min(a[d.name], b[d.name]), math.Max(a[d.name], b[d.name])
			if exact[d.name] && lo != hi {
				problems = append(problems, fmt.Sprintf("%s %s: %v vs %v, want bit-identical for one seed", w.name, d.name, a[d.name], b[d.name]))
			}
			// "Worse by more than the bound" relative to the better run.
			base := lo
			if lim.Better == "higher" {
				base = hi
			}
			if (hi-lo)/math.Abs(base) > lim.Bound {
				problems = append(problems, fmt.Sprintf("%s %s: %v vs %v differ by more than the bound %v", w.name, d.name, a[d.name], b[d.name], lim.Bound))
			}
		}
	}
	sort.Strings(problems)
	record := map[string]any{"host": stamp, "seed": opt.seed, "seconds": opt.seconds,
		"set1": sets[0], "set2": sets[1], "problems": problems, "pass": len(problems) == 0}
	b, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	out := filepath.Join(ev.root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "selfcheck-seed.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println(string(b))
	if len(problems) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
