package cq

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/fanout"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/window"
)

// TestTelemetryMatchesReport is the cross-check between the live metrics
// and the post-hoc report: after a RunConcurrent execution, every stage
// counter must equal the corresponding AggReport/handler total. If these
// drift apart, either the dashboard lies or the report does.
func TestTelemetryMatchesReport(t *testing.T) {
	tuples := gen.Sensor(20000, 11).Arrivals()
	reg := obs.NewRegistry()
	telem := NewTelemetry(reg, "obs-test", window.Spec{Size: 10 * stream.Second, Slide: stream.Second})
	handler := buffer.NewKSlack(500)

	rep, err := New(stream.FromTuples(tuples)).
		Handle(handler).
		Window(window.Spec{Size: 10 * stream.Second, Slide: stream.Second}, window.Sum()).
		Instrument(telem).
		RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := telem.SourceIn.Value(), float64(rep.Disorder.N); got != want {
		t.Errorf("source stage counter = %g, want %g (accepted data tuples)", got, want)
	}
	if got, want := telem.Released.Value(), float64(rep.Handler.Released); got != want {
		t.Errorf("disorder stage counter = %g, want %g (released tuples)", got, want)
	}
	if got, want := telem.Results.Value(), float64(len(rep.Results)); got != want {
		t.Errorf("window stage counter = %g, want %g (emitted results)", got, want)
	}
	if got, want := telem.Shed.Value(), float64(rep.Shed); got != want {
		t.Errorf("shed counter = %g, want %g", got, want)
	}
	// Latency histogram covers exactly the progress-emitted results,
	// matching the PreFlush split the latency metrics use.
	if got, want := telem.EmitLatency.Count(), uint64(rep.PreFlush); got != want {
		t.Errorf("latency histogram count = %d, want %d (PreFlush results)", got, want)
	}
	// The whole pipeline must be visible in one scrape.
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`aq_stage_tuples_total{query="obs-test",stage="source"}`,
		`aq_stage_tuples_total{query="obs-test",stage="disorder"}`,
		`aq_stage_tuples_total{query="obs-test",stage="window"}`,
		`aq_emit_latency_ms_count{query="obs-test"}`,
		`aq_queue_depth{query="obs-test",queue="fanout"}`,
	} {
		if !strings.Contains(out.String(), series) {
			t.Errorf("exposition missing %s", series)
		}
	}
}

// TestTelemetryShedCounting checks the shed counter against the report
// under the ring's ShedOldest policy with a tiny ring.
func TestTelemetryShedCounting(t *testing.T) {
	tuples := gen.Sensor(20000, 7).Arrivals()
	reg := obs.NewRegistry()
	telem := NewTelemetry(reg, "shed-test", window.Spec{Size: 10 * stream.Second, Slide: stream.Second})

	// A two-batch ring races the producer against the core; how many
	// tuples are lapped is timing-dependent, but the invariant under test
	// is timing-free: live counter == report count, and accepted ==
	// published − shed.
	reps, err := RunShared(context.Background(), stream.AsErrSource(stream.FromTuples(tuples)),
		SharedOpts{Ring: 2, Batch: 8, Policy: fanout.ShedOldest},
		New(nil).Handle(buffer.NewKSlack(0)).
			Window(window.Spec{Size: 10 * stream.Second, Slide: stream.Second}, window.Sum()).
			Instrument(telem))
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]
	if got, want := telem.Shed.Value(), float64(rep.Shed); got != want {
		t.Errorf("shed counter = %g, want %g", got, want)
	}
	if got, want := telem.SourceIn.Value(), float64(len(tuples))-float64(rep.Shed); got != want {
		t.Errorf("source counter = %g, want %g (accepted = published − shed)", got, want)
	}
}

// TestInstrumentedHandlerWrapper drives buffer.Instrument through a run
// and checks the wrapper's counters against the wrapped handler's stats.
func TestInstrumentedHandlerWrapper(t *testing.T) {
	tuples := gen.SensorBursty(10000, 5).Arrivals()
	reg := obs.NewRegistry()
	inner := buffer.NewMaxSlack()
	wrapped := buffer.Instrument(inner, reg, obs.L("query", "wrap-test"))

	rep, err := New(stream.FromTuples(tuples)).
		Handle(wrapped).
		Window(window.Spec{Size: 5 * stream.Second, Slide: stream.Second}, window.Avg()).
		RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Handler
	check := func(name string, want int64) {
		t.Helper()
		got := reg.Counter(name, "", obs.L("query", "wrap-test")).Value()
		if got != float64(want) {
			t.Errorf("%s = %g, want %d", name, got, want)
		}
	}
	check("aq_buffer_inserted_total", st.Inserted)
	check("aq_buffer_released_total", st.Released)
	check("aq_buffer_stragglers_total", st.Stragglers)
	// MaxSlack grows K as lateness peaks arrive; the bursty workload must
	// have produced at least one adaptation, and the gauge must agree
	// with the final slack.
	if v := reg.Counter("aq_buffer_k_adaptations_total", "", obs.L("query", "wrap-test")).Value(); v == 0 {
		t.Error("no K adaptations recorded for MaxSlack on a bursty workload")
	}
	if v := reg.Gauge("aq_buffer_k_ms", "", obs.L("query", "wrap-test")).Value(); v != float64(inner.K()) {
		t.Errorf("k gauge = %g, want %d", v, inner.K())
	}
	if wrapped.Unwrap() != inner {
		t.Error("Unwrap did not return the inner handler")
	}
}

// TestSaturatedPipelineShipsFullBatches is the other half of the ring's
// latency policy (fanout's TestPumpShipsPartialBatchToStarvedConsumer is
// the first): partial batches are for a starved core only. With a source
// that is never the bottleneck the core is always behind, so the batches
// it steps are full ones: aq_batch_size_tuples{queue="ingest"} has its
// median in the bucket of the configured batch size.
func TestSaturatedPipelineShipsFullBatches(t *testing.T) {
	const batch = 64
	tuples := gen.Sensor(50000, 17).Arrivals()
	reg := obs.NewRegistry()
	telem := NewTelemetry(reg, "sat", window.Spec{Size: 10 * stream.Second, Slide: stream.Second})
	_, err := New(stream.FromTuples(tuples)).
		Handle(buffer.NewKSlack(500)).
		Window(window.Spec{Size: 10 * stream.Second, Slide: stream.Second}, window.Sum()).
		Batch(batch).Instrument(telem).
		RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	// Buckets are powers of two; le="32" counts every batch smaller than
	// a full one.
	var below, total uint64
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "aq_batch_size_tuples_") || !strings.Contains(line, `queue="ingest"`) {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		switch {
		case strings.HasPrefix(line, "aq_batch_size_tuples_count"):
			total = v
		case strings.Contains(line, `le="32"`):
			below = v
		default:
			continue
		}
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
	}
	if total == 0 || total != telem.IngestBatch.Count() {
		t.Fatalf("exposition counts %d batches, the histogram %d", total, telem.IngestBatch.Count())
	}
	if 2*below >= total {
		t.Fatalf("%d of %d batches were partial: the median batch is not a full one", below, total)
	}
}
