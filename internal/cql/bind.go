package cql

import (
	"fmt"
	"os"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/gen"
	"repro/internal/obs/tracez"
	"repro/internal/sim"
	"repro/internal/stream"
)

// BuildHandler constructs the disorder handler the query requests.
func (q Query) BuildHandler() (buffer.Handler, error) {
	if q.Quality > 0 {
		return core.NewAQKSlack(core.Config{Theta: q.Quality, Spec: q.Spec, Agg: q.Agg}), nil
	}
	switch q.Handler.Kind {
	case "none":
		return buffer.Zero(), nil
	case "maxslack":
		return buffer.NewMaxSlack(), nil
	case "punctuated":
		return buffer.NewPunctuated(), nil
	case "kslack":
		return buffer.NewKSlack(q.Handler.K), nil
	case "wm":
		return buffer.NewPercentile(q.Handler.P, 500), nil
	default:
		return nil, fmt.Errorf("cql: no handler in query (parse bug?)")
	}
}

// SourceCatalog answers whether a named stream exists. The network
// control plane's source registry implements it so statements can be
// bound against the live fleet instead of the built-in generators.
type SourceCatalog interface {
	HasSource(name string) bool
}

// BindSource validates the query's FROM clause against a catalog of
// live sources. Unlike Tuples — which materializes a built-in
// generator — binding admits any registered source name, but rejects
// trace(...) sources (a network engine replays nothing from local
// disk) and names the catalog has never seen.
func (q Query) BindSource(cat SourceCatalog) error {
	if q.TraceFile != "" {
		return fmt.Errorf("cql: trace(...) sources cannot bind to a live stream registry")
	}
	if !cat.HasSource(q.Source) {
		return fmt.Errorf("cql: unknown source %q: not registered and no ingest seen", q.Source)
	}
	return nil
}

// Tuples materializes the query's input stream: n generated tuples with
// the given seed, or the recorded trace for trace(...) sources (n and
// seed ignored there).
func (q Query) Tuples(n int, seed uint64) ([]stream.Tuple, error) {
	if q.TraceFile != "" {
		f, err := os.Open(q.TraceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return gen.ReadTrace(f)
	}
	if q.Source == "simnet" {
		c := gen.Sensor(n, seed)
		c.Delays = nil
		return sim.Transport(c.Events(), seed), nil
	}
	c, ok := gen.Workload(q.Source, n, seed)
	if !ok {
		return nil, fmt.Errorf("cql: unknown source %q", q.Source)
	}
	if q.GroupBy && c.NumKeys <= 1 {
		c.NumKeys = 16 // grouped queries need keys; default fan-out
	}
	return c.Arrivals(), nil
}

// RunTraced executes the query end to end: n generated tuples (or the
// trace), the requested handler, the requested window shape. KeepInput is
// always set so callers can compute quality against the oracle. A non-nil
// tr is a tracez event tracer attached to the execution: buffer activity,
// controller decisions and window emissions land in its flight recorder
// (cqlsh -trace exports it as a Chrome trace). Note this is event tracing
// over the pipeline, unrelated to the trace('file.csv') CQL source, which
// replays a recorded tuple stream as input.
func (q Query) RunTraced(n int, seed uint64, tr *tracez.Tracer) (*cq.AggReport, error) {
	tuples, err := q.Tuples(n, seed)
	if err != nil {
		return nil, err
	}
	var src stream.Source = stream.FromTuples(tuples)
	if q.Quality == 0 && q.Handler.Kind == "punctuated" {
		src = stream.NewSliceSource(gen.WithOracleWatermarks(tuples, 64))
	}
	h, err := q.BuildHandler()
	if err != nil {
		return nil, err
	}
	b := cq.New(src).Handle(h).Window(q.Spec, q.Agg).KeepInput()
	if tr != nil {
		b = b.Trace(tr)
	}
	if q.GroupBy {
		b = b.GroupBy()
	}
	return b.Run()
}
